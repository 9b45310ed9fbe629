package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	layer  bool   // declared under per_layer, not end_to_end
}

// catalogue holds every metric BENCHMARK.json declares, by name;
// loadCatalogue fills it before a workload runs.
var catalogue map[string]metricDef

// loadCatalogue reads the end-to-end and per-layer metric declarations
// from the BENCHMARK.json at path.
func loadCatalogue(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	catalogue = map[string]metricDef{}
	for _, m := range decl.EndToEnd {
		catalogue[m.Name] = m
	}
	for _, m := range decl.PerLayer {
		m.layer = true
		catalogue[m.Name] = m
	}
	return nil
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports: the figures plus the
// correctness verdict. A failed check marks the run incorrect; it never
// becomes a metric.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]metricValue
	// Info holds figures shown in the human-readable table only
	// (per-rung ladder latencies, failed_frac, sample counts).
	Info   map[string]metricValue
	Checks []string // failed correctness checks
	// Unmeasured lists the per-layer metrics reported as 0 because
	// the workload does not measure their layer.
	Unmeasured []string
}

func newResult() *result {
	return &result{Metrics: map[string]metricValue{}, Info: map[string]metricValue{}}
}

// set records a metric; its unit comes from BENCHMARK.json.
func (r *result) set(name string, v float64) {
	m, ok := catalogue[name]
	if !ok {
		panic("perfbench: metric not declared in BENCHMARK.json: " + name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
}

// info records a figure for the human-readable table only.
func (r *result) info(name string, v float64, unit string) {
	r.Info[name] = metricValue{Value: v, Unit: unit}
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// correct reports whether every check passed and every metric is a
// finite number.
func (r *result) correct() bool {
	if len(r.Checks) > 0 {
		return false
	}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// print writes the human-readable table, then the one-line JSON
// summary as the last line.
func (r *result) print(w io.Writer, workload string) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-12s %-40s %14.6g %-8s better=%s\n", workload, n, m.Value, m.Unit, catalogue[n].Better)
	}
	infos := make([]string, 0, len(r.Info))
	for n := range r.Info {
		infos = append(infos, n)
	}
	sort.Strings(infos)
	for _, n := range infos {
		m := r.Info[n]
		fmt.Fprintf(w, "%-12s %-40s %14.6g %-8s (info)\n", workload, n, m.Value, m.Unit)
	}
	if len(r.Unmeasured) > 0 {
		fmt.Fprintf(w, "%-12s not measured on this workload (reported as 0): %s\n", workload, strings.Join(r.Unmeasured, " "))
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "%-12s CHECK FAILED: %s\n", workload, c)
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// finish leaves in Metrics only the kind the run reports — per-layer
// metrics for a traced run, end-to-end ones otherwise — and moves the
// rest to the informational table. Every workload measures every
// end-to-end metric; one it did not is a failed check. A per-layer
// metric of a layer the workload does not measure reads 0, and the
// table lists it as unmeasured.
func (r *result) finish(trace bool) {
	for n, m := range r.Metrics {
		if catalogue[n].layer != trace {
			r.Info[n] = m
			delete(r.Metrics, n)
		}
	}
	for n, def := range catalogue {
		if def.layer != trace {
			continue
		}
		m, ok := r.Metrics[n]
		switch {
		case !trace:
			r.check(ok, "end-to-end metric %s was not measured", n)
		case !ok || math.IsNaN(m.Value):
			r.set(n, 0)
			r.Unmeasured = append(r.Unmeasured, n)
		}
	}
	sort.Strings(r.Unmeasured)
}

// mergeMedian combines the results of repeated measurements in one run:
// each metric and informational figure is the median over the
// repetitions, request counts add up, and every failed check is kept.
func mergeMedian(reps []*result) *result { return mergeReps(reps, median) }

// mergeReps is mergeMedian with agg in place of the median.
func mergeReps(reps []*result, agg func([]float64) float64) *result {
	out := newResult()
	vals := map[string][]float64{}
	infos := map[string][]float64{}
	for _, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Checks = append(out.Checks, r.Checks...)
		for n, m := range r.Metrics {
			vals[n] = append(vals[n], m.Value)
		}
		for n, m := range r.Info {
			infos[n] = append(infos[n], m.Value)
			out.Info[n] = m
		}
	}
	for n, vs := range vals {
		out.set(n, agg(vs))
	}
	for n, vs := range infos {
		out.info(n, agg(vs), out.Info[n].Unit)
	}
	return out
}
