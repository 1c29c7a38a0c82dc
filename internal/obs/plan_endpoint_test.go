package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"hyperhammer/internal/profile"
	"hyperhammer/internal/sched"
	"hyperhammer/internal/scope"
)

// TestPlanEndpointEmpty: without a plan source, /api/plan serves the
// empty-but-schema-valid report (arrays [], never null).
func TestPlanEndpointEmpty(t *testing.T) {
	srv, _, _ := newTestServer(t)
	code, body := get(t, srv, "/api/plan")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if strings.Contains(body, "null") {
		t.Fatalf("empty plan serves null:\n%s", body)
	}
	var r profile.PlanReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if r.Version != profile.PlanVersion || len(r.Units) != 0 {
		t.Fatalf("empty plan = %+v", r)
	}
}

// TestPlanEndpointServesInstalledSource: the report of the schedule the
// published source returns is what the endpoint serves, reflecting the
// live schedule.
func TestPlanEndpointServesInstalledSource(t *testing.T) {
	var live *sched.Schedule
	srv, _, _ := newServerOver(t, scope.Scope{}, Sources{Schedule: func() *sched.Schedule { return live }})
	// Before the batch has run the source returns nil, and the
	// endpoint serves the empty report.
	if _, body := get(t, srv, "/api/plan"); strings.Contains(body, "null") || !strings.Contains(body, `"units": []`) {
		t.Fatalf("unscheduled source serves:\n%s", body)
	}
	live = &sched.Schedule{
		Workers:     2,
		WallSeconds: 0.2,
		Units: []sched.UnitTiming{
			{Index: 0, Name: "exp.a", Worker: 0, EndSeconds: 0.1,
				DeliverStartSeconds: 0.1, DeliverEndSeconds: 0.11, Started: true, Delivered: true},
			{Index: 1, Name: "exp.b", Worker: 1, EndSeconds: 0.2,
				DeliverStartSeconds: 0.2, DeliverEndSeconds: 0.2, Started: true, Delivered: true},
		},
	}
	code, body := get(t, srv, "/api/plan")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var r profile.PlanReport
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if r.Workers != 2 || len(r.Units) != 2 || len(r.CriticalPath) == 0 {
		t.Fatalf("served plan = %+v", r)
	}
}
