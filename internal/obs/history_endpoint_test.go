package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"hyperhammer/internal/profile"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
	"hyperhammer/internal/scope"
)

func historyTestArtifact(rounds string) *runartifact.Artifact {
	a := runartifact.New("hyperhammer", 4, "short")
	a.Config["hammer-rounds"] = rounds
	a.SimSeconds = 123.5
	a.Outcome["attempts"] = 2
	a.Profile = []profile.Entry{{Path: "attack.campaign", SimSeconds: 120, Activations: 500}}
	return a
}

// TestHistoryEndpointsNoStore: without a store the endpoints serve
// empty-but-schema-valid documents — lists present, never null.
func TestHistoryEndpointsNoStore(t *testing.T) {
	srv, _, _ := newTestServer(t)
	for path, wantList := range map[string]string{
		"/api/history": `"entries": []`,
		"/api/trend":   `"groups": []`,
	} {
		code, body := get(t, srv, path)
		if code != 200 {
			t.Fatalf("GET %s = %d", path, code)
		}
		if strings.Contains(body, "null") {
			t.Errorf("%s serves null without a store:\n%s", path, body)
		}
		if !strings.Contains(body, wantList) {
			t.Errorf("%s lacks its empty list:\n%s", path, body)
		}
	}
}

// TestHistoryEndpointsServeStore: a served store's runs appear in
// both endpoints, and the trend endpoint attributes drift.
func TestHistoryEndpointsServeStore(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, _, _ := newServerOver(t, scope.Scope{}, Sources{Store: store})

	if _, err := store.Ingest(historyTestArtifact("150000")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Ingest(historyTestArtifact("150000")); err != nil {
		t.Fatal(err)
	}
	perturbed := historyTestArtifact("400000")
	perturbed.SimSeconds = 300.25
	if _, err := store.Ingest(perturbed); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, srv, "/api/history")
	if code != 200 {
		t.Fatalf("history = %d", code)
	}
	var h runstore.HistorySnapshot
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("history decode: %v", err)
	}
	if len(h.Entries) != 3 {
		t.Fatalf("history has %d entries, want 3", len(h.Entries))
	}

	code, body = get(t, srv, "/api/trend")
	if code != 200 {
		t.Fatalf("trend = %d", code)
	}
	var r runstore.Report
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatalf("trend decode: %v", err)
	}
	if len(r.Groups) != 1 || !r.Groups[0].SimDrift || r.Groups[0].DriftKind != runstore.DriftConfig {
		t.Fatalf("trend misfolded the perturbed run: %+v", r.Groups)
	}
}

// TestHistoryEndpointsRaceIngest: two goroutines ingesting while both
// endpoints are polled — with -race this proves the snapshot-copy
// contract, and every observed response must be complete, valid JSON
// with no nulls (never a partial view of an in-flight ingest).
func TestHistoryEndpointsRaceIngest(t *testing.T) {
	store, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, _, _ := newServerOver(t, scope.Scope{}, Sources{Store: store})

	const perWriter = 8
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(rounds string) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := store.Ingest(historyTestArtifact(rounds)); err != nil {
					t.Error(err)
					return
				}
			}
		}([]string{"150000", "400000"}[w])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	poll := func() {
		for _, path := range []string{"/api/history", "/api/trend"} {
			code, body := get(t, srv, path)
			if code != 200 {
				t.Errorf("GET %s = %d", path, code)
			}
			if strings.Contains(body, "null") {
				t.Errorf("%s served null mid-ingest:\n%s", path, body)
			}
			var doc map[string]any
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Errorf("%s served partial JSON mid-ingest: %v", path, err)
			}
		}
	}
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			poll()
		}
	}

	code, body := get(t, srv, "/api/history")
	if code != 200 {
		t.Fatalf("final history = %d", code)
	}
	var h runstore.HistorySnapshot
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 2*perWriter {
		t.Fatalf("final history has %d entries, want %d", len(h.Entries), 2*perWriter)
	}
	seen := map[int]bool{}
	for _, e := range h.Entries {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d in concurrent ingest", e.Seq)
		}
		seen[e.Seq] = true
	}
}
