package explore

import (
	"reflect"
	"strings"
	"testing"
)

// TestRebindCleanSchedules: with the runtime correct, every explored
// interleaving of the repair-window scenario — including the repair
// call landing between the two sibling call messages — keeps the
// exactly-once invariant.
func TestRebindCleanSchedules(t *testing.T) {
	rep, err := Run(RebindScenario{}, Options{Seed: 1, Schedules: 6, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("clean runtime violated under seed %d:\n%s",
			rep.Violating.Seed, strings.Join(rep.Violating.Violations, "\n"))
	}
	if rep.Explored != 6 || rep.TotalSteps == 0 {
		t.Fatalf("explored %d schedules over %d steps, want 6 over >0", rep.Explored, rep.TotalSteps)
	}
}

// TestRebindPlantedBugFoundAndReplayed is the regression pinning the
// explorer's reason to exist: a rebind that wrongly discards the
// server's collation and finished-call records only misbehaves when the repair call is
// delivered between two sibling deliveries of one logical call. The
// search must find that window within its schedule budget, and the
// counterexample must replay decision-for-decision from its seed.
func TestRebindPlantedBugFoundAndReplayed(t *testing.T) {
	planted := RebindScenario{PlantedBug: true}
	opts := Options{Seed: 1, Schedules: 20, Log: t.Logf}
	rep, err := Run(planted, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating == nil {
		t.Fatalf("planted rebind bug not found in %d schedules (%d steps)", rep.Explored, rep.TotalSteps)
	}
	found := rep.Violating
	t.Logf("bug found at seed %d after %d schedules:\n%s",
		found.Seed, rep.Explored, strings.Join(found.Violations, "\n"))
	if !hasViolation(found.Violations, "executed") {
		t.Fatalf("expected a double-execution violation, got: %v", found.Violations)
	}

	replay, err := RunSchedule(planted, opts, found.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay.Decisions, found.Decisions) {
		t.Fatalf("replay of seed %d diverged:\noriginal: %v\nreplay:   %v",
			found.Seed, found.Decisions, replay.Decisions)
	}
	if !hasViolation(replay.Violations, "executed") {
		t.Fatalf("replay of seed %d lost the violation: %v", found.Seed, replay.Violations)
	}
}

// TestBroadcastOrderedUnderExploration: the §5.4 commit protocol keeps
// identical delivery order at every member no matter how the explorer
// interleaves proposals and commits.
func TestBroadcastOrderedUnderExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second schedule search")
	}
	rep, err := Run(BroadcastScenario{}, Options{Seed: 1, Schedules: 3, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violating != nil {
		t.Fatalf("broadcast order violated under seed %d:\n%s",
			rep.Violating.Seed, strings.Join(rep.Violating.Violations, "\n"))
	}
}

func hasViolation(vs []string, substr string) bool {
	for _, v := range vs {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}
