package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/forensics"
	"hyperhammer/internal/inspect"
	"hyperhammer/internal/ledger"
	"hyperhammer/internal/profile"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/sched"
	"hyperhammer/internal/scope"
)

// TestSnapshotEndpoints: every /api/<name> snapshot endpoint answers
// 200 with a JSON object that never serializes null, both before
// anything is installed and with every plane, the plan source and the
// run store populated.
func TestSnapshotEndpoints(t *testing.T) {
	check := func(t *testing.T, srv *Server) {
		t.Helper()
		for _, e := range snapshotEndpoints {
			path := "/api/" + e.name
			code, body := get(t, srv, path)
			if code != 200 {
				t.Errorf("%s status = %d", path, code)
			}
			var doc map[string]any
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Errorf("%s is not a JSON object: %v", path, err)
			}
			if strings.Contains(body, "null") {
				t.Errorf("%s serializes null:\n%s", path, body)
			}
		}
	}
	t.Run("empty", func(t *testing.T) {
		srv, _, _ := newTestServer(t)
		check(t, srv)
	})
	t.Run("populated", func(t *testing.T) {
		srv, reg, clock := newTestServer(t)
		ins := inspect.New()
		ins.BindMachine(4, 1024)
		ins.SetMetrics(reg)
		ins.SetCensusFunc(func() inspect.Census {
			return inspect.Census{VMs: 1,
				EPT:   inspect.EPTCensus{TablePages: []int{0, 3}},
				Buddy: inspect.BuddyCensus{FreeBlocks: [][]int{{1, 2}}}}
		})
		ins.RecordRowActivations(1, 512, 9000)
		ins.RecordFlip(1, 512)
		ins.Evaluate(time.Second)

		fr := forensics.New()
		fr.BindClock(clock)
		fr.BeginCampaign(1)
		fr.BeginAttempt(0)
		fr.EndAttempt(forensics.AttemptFacts{Index: 0, Outcome: forensics.OutcomeSteerMiss})
		fr.EndCampaign()

		led := ledger.New(ledger.Config{Epoch: time.Second})
		led.BindClock(clock)
		led.Stream("kvm.rng").Fold1(7)
		clock.Advance(2 * time.Second)

		srv.plane.SetScope(scope.Scope{Metrics: reg, Inspect: ins, Forensics: fr, Ledger: led})
		srv.plane.SetPlanFunc(func() *profile.PlanReport {
			return profile.BuildPlanReport(&sched.Schedule{
				Workers: 1, WallSeconds: 0.1,
				Units: []sched.UnitTiming{{Name: "exp.a", EndSeconds: 0.1,
					DeliverStartSeconds: 0.1, DeliverEndSeconds: 0.1, Started: true, Delivered: true}},
			})
		})
		store, err := runstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		for _, rounds := range []string{"150000", "400000"} {
			if _, err := store.Ingest(historyTestArtifact(rounds)); err != nil {
				t.Fatal(err)
			}
		}
		srv.plane.SetRunStore(store)
		check(t, srv)
	})
}
