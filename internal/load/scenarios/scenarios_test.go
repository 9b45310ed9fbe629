package scenarios

import (
	"strings"
	"testing"

	"acd/internal/load"
)

// TestRegistry: eleven scenarios, unique names, Find agrees with All.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("len(All()) = %d, want 11", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if s.Name == "" || s.Desc == "" || s.Run == nil {
			t.Errorf("scenario %+v incomplete", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		got, ok := Find(s.Name)
		if !ok || got.Name != s.Name {
			t.Errorf("Find(%q) failed", s.Name)
		}
	}
	if _, ok := Find("no-such-scenario"); ok {
		t.Error("Find accepted an unknown name")
	}
}

// TestOptionsValidation: a missing Dir and a negative shard count are
// rejected.
func TestOptionsValidation(t *testing.T) {
	if _, err := (Options{}).withDefaults(); err == nil {
		t.Error("empty Dir accepted")
	}
	if _, err := (Options{Dir: "x", Shards: -1}).withDefaults(); err == nil {
		t.Error("negative shards accepted")
	}
	o, err := Options{Dir: "x"}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Shards != 1 || o.Seed != 1 || o.Log == nil {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// checkReport: shared sanity for a smoke report.
func checkReport(t *testing.T, rep *load.Report, name string) {
	t.Helper()
	if rep.Scenario != name {
		t.Errorf("scenario label %q, want %q", rep.Scenario, name)
	}
	if rep.TotalOps() == 0 {
		t.Errorf("%s measured zero ops", name)
	}
	if rep.TotalErrors() != 0 {
		t.Errorf("%s measured %d errors", name, rep.TotalErrors())
	}
}

// TestBaselineSmoke runs the baseline scenario end to end in smoke mode
// against a real journaled in-process server.
func TestBaselineSmoke(t *testing.T) {
	var logb strings.Builder
	rep, err := runBaseline(Options{Dir: t.TempDir(), Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("baseline: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "baseline")
	if rep.Counters.AckedRecords == 0 {
		t.Error("baseline acked no records")
	}
}

// TestBurstySmoke exercises the open-loop path with rate bursts.
func TestBurstySmoke(t *testing.T) {
	rep, err := runBursty(Options{Dir: t.TempDir(), Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "bursty")
}

// TestDegradedCrowdSmoke exercises the one-backend faulty fleet:
// resolves run against a slow faulty crowd and still complete.
func TestDegradedCrowdSmoke(t *testing.T) {
	rep, err := runDegradedCrowd(Options{Dir: t.TempDir(), Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "degraded-crowd")
	if rep.Endpoints[load.EndpointResolve].Ops == 0 {
		t.Error("degraded-crowd never resolved")
	}
}

// TestMixedFleetSmoke exercises the marketplace wiring end to end:
// resolves buy answers across the default heterogeneous fleet under a
// mid-run price spike, and the router's spend accounting lands in the
// report.
func TestMixedFleetSmoke(t *testing.T) {
	var logb strings.Builder
	rep, err := runMixedFleet(Options{Dir: t.TempDir(), Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("mixed-fleet: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "mixed-fleet")
	if rep.Endpoints[load.EndpointResolve].Ops == 0 {
		t.Error("mixed-fleet never resolved")
	}
	if rep.Extra["routed"] == 0 {
		t.Error("mixed-fleet routed no questions through the marketplace")
	}
	if rep.Extra["spend_cents"] == 0 {
		t.Error("mixed-fleet spent nothing — the paid backends were never used")
	}
}

// TestBackendOutageSmoke exercises the marketplace fault drill: the
// preferred backend drops every question, yet resolves complete with
// zero request errors and the market still routes and spends.
func TestBackendOutageSmoke(t *testing.T) {
	var logb strings.Builder
	rep, err := runBackendOutage(Options{Dir: t.TempDir(), Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("backend-outage: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "backend-outage")
	if rep.Endpoints[load.EndpointResolve].Ops == 0 {
		t.Error("backend-outage never resolved")
	}
	if rep.Extra["routed"] == 0 {
		t.Error("backend-outage routed no questions")
	}
}

// TestCrashRestart is the durability drill: all committed-prefix
// assertions live inside the scenario; this runs them for real (CI
// repeats it under -race and at 3 shards).
func TestCrashRestart(t *testing.T) {
	var logb strings.Builder
	rep, err := runCrashRestart(Options{Dir: t.TempDir(), Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("crash-restart: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "crash-restart")
	if rep.Extra["acked_floor_records"] < 150 {
		t.Errorf("ack floor %v below the smoke target", rep.Extra["acked_floor_records"])
	}
	if rep.Extra["recovered_records"] < rep.Extra["acked_floor_records"] {
		t.Errorf("recovered %v < floor %v — the scenario should have failed",
			rep.Extra["recovered_records"], rep.Extra["acked_floor_records"])
	}
	if rep.Extra["recovery_ms"] <= 0 {
		t.Error("recovery_ms not recorded")
	}
}

// TestCrashRestartGroupCommit runs the drill with the batched write
// path on (2ms commit window, 32 KiB segments): acks ride group fsyncs
// and the live tree rotates segments while it is being copied, and the
// committed-prefix contract must still hold in every image.
func TestCrashRestartGroupCommit(t *testing.T) {
	var logb strings.Builder
	rep, err := runCrashRestartGroupCommit(Options{Dir: t.TempDir(), Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("crash-restart-groupcommit: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "crash-restart-groupcommit")
	if rep.Extra["acked_floor_records"] < 150 {
		t.Errorf("ack floor %v below the smoke target", rep.Extra["acked_floor_records"])
	}
	if rep.Extra["recovered_records"] < rep.Extra["acked_floor_records"] {
		t.Errorf("recovered %v < floor %v — the scenario should have failed",
			rep.Extra["recovered_records"], rep.Extra["acked_floor_records"])
	}
}

// TestCrashRestartGroupCommitSharded repeats the batched drill at 3
// shards: three group-committing shard WALs plus the per-event router
// WAL, each rotating independently under the copy.
func TestCrashRestartGroupCommitSharded(t *testing.T) {
	var logb strings.Builder
	rep, err := runCrashRestartGroupCommit(Options{Dir: t.TempDir(), Shards: 3, Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("crash-restart-groupcommit -shards 3: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "crash-restart-groupcommit")
	if rep.Shards != 3 {
		t.Errorf("report shards = %d, want 3", rep.Shards)
	}
}

// TestReplicaReadsSmoke runs the replicated read topology end to end:
// leader plus two followers, reads drained through the followers, and
// both followers settling to the leader's exact state afterwards.
func TestReplicaReadsSmoke(t *testing.T) {
	var logb strings.Builder
	rep, err := runReplicaReads(Options{Dir: t.TempDir(), Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("replica-reads: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "replica-reads")
	if rep.Endpoints[load.EndpointClusters].Ops == 0 {
		t.Error("replica-reads measured no cluster reads")
	}
	if rep.Extra["leader_records"] == 0 {
		t.Error("replica-reads ingested nothing")
	}
}

// TestReplicaFailoverSmoke runs the failover drill for real: leader
// killed mid-ingest, follower promoted over its journals, and the
// committed-prefix contract checked inside the scenario (CI repeats it
// under -race and at 3 shards).
func TestReplicaFailoverSmoke(t *testing.T) {
	var logb strings.Builder
	rep, err := runReplicaFailover(Options{Dir: t.TempDir(), Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("replica-failover: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "replica-failover")
	if rep.Extra["acked_floor_records"] < 150 {
		t.Errorf("ack floor %v below the smoke target", rep.Extra["acked_floor_records"])
	}
	if rep.Extra["promoted_records"] < rep.Extra["acked_floor_records"] {
		t.Errorf("promoted %v < floor %v — the scenario should have failed",
			rep.Extra["promoted_records"], rep.Extra["acked_floor_records"])
	}
	if rep.Extra["promote_ms"] <= 0 {
		t.Error("promote_ms not recorded")
	}
}

// TestReplicaFailoverSharded repeats the failover drill at 3 shards:
// three shard journals plus the router stream, promoted together.
func TestReplicaFailoverSharded(t *testing.T) {
	var logb strings.Builder
	rep, err := runReplicaFailover(Options{Dir: t.TempDir(), Shards: 3, Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("replica-failover -shards 3: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "replica-failover")
	if rep.Shards != 3 {
		t.Errorf("report shards = %d, want 3", rep.Shards)
	}
}

// TestCrashRestartSharded repeats the drill at 3 shards, where the
// crash image spans a router journal plus three shard journals copied
// at different instants.
func TestCrashRestartSharded(t *testing.T) {
	var logb strings.Builder
	rep, err := runCrashRestart(Options{Dir: t.TempDir(), Shards: 3, Smoke: true, Log: &logb})
	if err != nil {
		t.Fatalf("crash-restart -shards 3: %v\nlog:\n%s", err, logb.String())
	}
	checkReport(t, rep, "crash-restart")
	if rep.Shards != 3 {
		t.Errorf("report shards = %d, want 3", rep.Shards)
	}
	if rep.Extra["distinct_pairs_floor"] == 0 {
		t.Error("no answer pairs acked before the crash image; the answers floor was not exercised")
	}
}
