package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"circus"
	"circus/internal/mesh"
)

// quick runs a workload briefly, with one set-up, and no span file.
func quick(t *testing.T, w workload, trace bool, wrap func(circus.Module, *tracer, string, int, bool) circus.Module) *result {
	t.Helper()
	res, err := quickErr(w, trace, wrap)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func quickErr(w workload, trace bool, wrap func(circus.Module, *tracer, string, int, bool) circus.Module) (*result, error) {
	wk := w
	if wrap != nil {
		build := w.build
		wk.build = func(e *env) (cluster, error) {
			e.wrap = wrap
			return build(e)
		}
	}
	return run(context.Background(), config{workload: wk, seed: 7, seconds: 2, trace: trace, setups: 1})
}

func byName(t *testing.T, name string) workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

func TestEchoRunIsCorrect(t *testing.T) {
	res := quick(t, byName(t, "echo-udp"), false, nil)
	if !res.correct || res.failed > 0 {
		t.Fatalf("clean echo run: correct=%v failed=%d violations=%v", res.correct, res.failed, res.violations)
	}
}

// A module that corrupts one reply, identically at every member, gets
// past collation; the run's reply check must catch it.
func TestCorruptedEchoReplyFailsRun(t *testing.T) {
	w := byName(t, "echo-udp")
	w.build = func(e *env) (cluster, error) { return newEchoUDP(e, 5) }
	res := quick(t, w, false, nil)
	if res.correct {
		t.Fatal("run with a corrupted reply reported correct")
	}
	if !strings.Contains(strings.Join(res.violations, "\n"), "request 5") {
		t.Fatalf("violations do not name the corrupted request: %v", res.violations)
	}
}

func TestDurableRunSurvivesPowerLoss(t *testing.T) {
	res := quick(t, byName(t, "durable-kv-udp"), false, nil)
	if !res.correct {
		t.Fatalf("clean durable run failed its checks: %v", res.violations)
	}
}

// A store that acknowledges a put before AppendSync returns loses
// acknowledged writes when the disks lose power; the check must see it.
func TestAckBeforeSyncFailsPowerLossCheck(t *testing.T) {
	w := byName(t, "durable-kv-udp")
	w.build = func(e *env) (cluster, error) { return newDurableKV(e, true) }
	res := quick(t, w, false, nil)
	if res.correct {
		t.Fatal("store acking before its record was durable passed the power-loss check")
	}
	if !strings.Contains(strings.Join(res.violations, "\n"), "lost") {
		t.Fatalf("violations do not report lost writes: %v", res.violations)
	}
}

// A crashed member is masked and its replacement joins: nothing fails,
// nothing executes twice, and the outage is seen.
func TestFailoverRunRecovers(t *testing.T) {
	res, err := run(context.Background(), config{workload: byName(t, "failover-sim"), seed: 7, seconds: 6, trace: true, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed > 0 {
		t.Fatalf("failover run: correct=%v failed=%d violations=%v", res.correct, res.failed, res.violations)
	}
	if res.metrics["outage_ms"] <= 0 || res.metrics["ringmaster.join_ms"] <= 0 {
		t.Fatalf("outage_ms=%v join_ms=%v: the crash or the join did not happen",
			res.metrics["outage_ms"], res.metrics["ringmaster.join_ms"])
	}
}

func TestWrapperKeepsInterfaces(t *testing.T) {
	tr := newTracer()
	store := &kvStore{m: map[string]string{}}
	if _, ok := wrapTimed(store, tr, "core.exec", 0, true).(mesh.Positioned); !ok {
		t.Error("wrapped store no longer serves spread reads")
	}
	guard := mesh.NewGuard("kv/s0", store, kvKeyOf)
	if _, ok := wrapTimed(guard, tr, "mesh.guard", 0, false).(circus.StateProvider); !ok {
		t.Error("wrapped guard no longer transfers state")
	}
	if _, ok := wrapTimed(&echoModule{}, tr, "core.exec", 0, true).(circus.StateProvider); !ok {
		t.Error("wrapped echo no longer transfers state")
	}
}

// spreadFrac is the share of reads one member served, as a run
// reports it.
func spreadFrac(res *result) float64 {
	if v, ok := res.metrics["mesh.spread_served_frac"]; ok {
		return v
	}
	f, _ := res.report["mesh.spread_served_frac"].(float64)
	return f
}

// A traced run must take the path an untraced one does: the spread
// reads served by one member are the same share in both. A wrapper
// that hides mesh.Positioned from the guard sends every spread read
// into the guard's refusal instead: the run either fails outright or
// serves a different share.
func TestTracedRunTakesSamePath(t *testing.T) {
	w := byName(t, "mesh-kv-sim")
	untraced := spreadFrac(quick(t, w, false, nil))
	traced := spreadFrac(quick(t, w, true, nil))
	if untraced < 0.9 || math.Abs(traced-untraced) > 0.05 {
		t.Fatalf("spread_served_frac untraced %.3f, traced %.3f", untraced, traced)
	}
	hiding := func(inner circus.Module, tr *tracer, name string, member int, ridInArgs bool) circus.Module {
		return &timed{inner: inner, tr: tr, name: name, member: member, ridInArgs: ridInArgs}
	}
	res, err := quickErr(w, true, hiding)
	if err == nil && math.Abs(spreadFrac(res)-untraced) <= 0.05 {
		t.Fatalf("a wrapper hiding mesh.Positioned went unnoticed: spread_served_frac %.3f vs %.3f", spreadFrac(res), untraced)
	}
}

func TestLinkNestsSpans(t *testing.T) {
	spans := []span{
		{Name: "bench.op", RID: 9, Member: client, Start: 0, End: 100},
		{Name: "core.call", RID: 9, Member: client, Start: 10, End: 90},
		{Name: "core.exec", RID: 9, Member: 0, Start: 20, End: 60},
		{Name: "wal.append", RID: 9, Member: 0, Start: 30, End: 50},
	}
	link(spans)
	parent := map[string]string{}
	byID := map[int]string{}
	for _, s := range spans {
		byID[s.ID] = s.Name
	}
	for _, s := range spans {
		parent[s.Name] = byID[s.Parent]
	}
	want := map[string]string{"bench.op": "", "core.call": "bench.op", "core.exec": "bench.op", "wal.append": "core.exec"}
	for name, p := range want {
		if parent[name] != p {
			t.Errorf("parent of %s = %q, want %q", name, parent[name], p)
		}
	}
}

// The result line must name exactly the metrics BENCHMARK.json
// declares, with the same units, and serve every workload it lists.
func TestBenchmarkSpecMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []metric, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(declared), len(printed))
		}
		for _, m := range declared {
			if u, ok := printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s declared in %q, printed in %q", what, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndUnits)
	same("per_layer", spec.PerLayer, perLayerUnits)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		byName(t, w.Name)
	}
}
