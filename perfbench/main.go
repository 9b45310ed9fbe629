// Command perfbench is the repository benchmark: it drives acdserve's
// HTTP stack and the offline ACD pipeline on generated inputs, checks
// their outputs, and prints end-to-end metrics (or, with --trace 1,
// per-layer metrics) as a table followed by a one-line JSON summary.
//
//	perfbench --workload ingest|serve-mixed|paper-batch|all --seed N --seconds S --trace 0|1
//
// BENCHMARK.json at the repository root lists the workloads and
// metrics, and perfbench reads each metric's unit and better-direction
// from it; perfbench/README.md describes them. Run it through
// perfbench/run.sh, which builds it from the checkout first and runs it
// from the checkout root.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

var workloads = map[string]func(options) (*result, error){
	"ingest":      runIngest,
	"serve-mixed": runServeMixed,
	"paper-batch": runPaperBatch,
}

// repeats is how many times every workload repeats its set-up and its
// measurement within one run; each metric is the median over them.
const repeats = 3

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"ingest", "serve-mixed", "paper-batch"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "ingest, serve-mixed, paper-batch, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 10, "serve-mixed: the reference rung lasts 0.6×, every other ladder rung 0.08× this many seconds")
	trace := fs.Int("trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if err := loadCatalogue("BENCHMARK.json"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d %s GOMAXPROCS=%d nproc=%d\n",
		o.workload, o.seed, o.seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if o.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res.finish(o.trace)
	if err := res.print(stdout, o.workload); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process with the same
// flags, passes their output through, and ends with one JSON line that
// merges them (metric names prefixed by workload).
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		if a == "workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "workload=") {
			continue
		}
		rest = append(rest, args[i])
	}
	type summary struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	all := summary{Correct: true, Metrics: map[string]metricValue{}}
	status := 0
	for _, w := range workloadOrder {
		cmd := exec.Command(self, append([]string{"--workload", w}, rest...)...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = sc.Text()
		}
		werr := cmd.Wait()
		var s summary
		if err := json.Unmarshal([]byte(last), &s); err != nil || werr != nil {
			fmt.Fprintf(stderr, "perfbench: workload %s failed: %v\n", w, werr)
			all.Correct = false
			status = 1
			continue
		}
		all.Correct = all.Correct && s.Correct
		all.Attempted += s.Attempted
		all.Failed += s.Failed
		for k, v := range s.Metrics {
			all.Metrics[w+"/"+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return status
}

// traceFile is where a traced run writes its spans.
func traceFile(o options) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
}
