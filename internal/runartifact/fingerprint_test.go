package runartifact

import (
	"bytes"
	"strings"
	"testing"

	"hyperhammer/internal/profile"
)

func hashTestArtifact() *Artifact {
	a := New("hyperhammer", 4, "short")
	a.Config["short"] = "true"
	a.Config["attempts"] = "2"
	a.Config["hammer-rounds"] = "150000"
	a.Config["parallel"] = "1"
	a.SimSeconds = 123.5
	a.Outcome["attempts"] = 2
	a.Outcome["successes"] = 0
	a.Profile = []profile.Entry{
		{Path: "attack.campaign", SimSeconds: 120, Activations: 500},
		{Path: "attack.campaign;attempt", SimSeconds: 100},
	}
	return a
}

// TestConfigHashDeterministicConfigOnly: the hash covers the
// deterministic config identity and nothing else — host-only keys
// (parallel, selection) never move it, simulated knobs always do.
func TestConfigHashDeterministicConfigOnly(t *testing.T) {
	a := hashTestArtifact()
	base := a.ComputeConfigHash()
	if len(base) != 16 {
		t.Fatalf("hash %q: want 16 hex chars", base)
	}

	b := hashTestArtifact()
	b.Config["parallel"] = "8"
	b.Config["selection"] = "-short -all -parallel 8"
	if got := b.ComputeConfigHash(); got != base {
		t.Errorf("host-only config keys moved the hash: %s != %s", got, base)
	}

	for _, perturb := range []func(*Artifact){
		func(a *Artifact) { a.Config["hammer-rounds"] = "400000" },
		func(a *Artifact) { a.Seed = 5 },
		func(a *Artifact) { a.Scale = "full" },
		func(a *Artifact) { a.Tool = "hh-tables" },
		func(a *Artifact) { a.Config["new-knob"] = "1" },
	} {
		c := hashTestArtifact()
		perturb(c)
		if got := c.ComputeConfigHash(); got == base {
			t.Errorf("deterministic config change did not move the hash (%+v)", c.Config)
		}
	}

	// Results never enter the config hash.
	d := hashTestArtifact()
	d.SimSeconds = 999
	d.Outcome["successes"] = 1
	if got := d.ComputeConfigHash(); got != base {
		t.Errorf("outcome change moved the config hash: %s != %s", got, base)
	}
}

// TestWriteStampsHeader: serialization stamps ConfigHash and
// ToolVersion on every path, and the stamped document round-trips.
func TestWriteStampsHeader(t *testing.T) {
	a := hashTestArtifact()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if a.ConfigHash == "" || a.ToolVersion != ToolVersion {
		t.Fatalf("Write did not stamp: hash=%q version=%q", a.ConfigHash, a.ToolVersion)
	}
	if !strings.Contains(buf.String(), `"configHash"`) || !strings.Contains(buf.String(), `"toolVersion"`) {
		t.Fatal("stamped fields missing from serialized artifact")
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfigHash != a.ConfigHash || back.ToolVersion != ToolVersion {
		t.Fatalf("round-trip lost the stamp: %+v", back)
	}
}

// TestContentHashIgnoresHostFields: two byte-identical-figure runs
// hash equal even when wall clock, host plan, and release stamp
// differ; any simulated figure moves it.
func TestContentHashIgnoresHostFields(t *testing.T) {
	a, b := hashTestArtifact(), hashTestArtifact()
	b.CreatedAt = "2026-08-07T00:00:00Z"
	b.Plan = profile.EmptyPlanReport()
	b.Config["parallel"] = "8"
	b.Config["selection"] = "-short -all -parallel 8"
	if a.ContentHash() != b.ContentHash() {
		t.Error("host-only sections moved the content hash")
	}
	c := hashTestArtifact()
	c.Outcome["successes"] = 1
	if a.ContentHash() == c.ContentHash() {
		t.Error("outcome change did not move the content hash")
	}
}

// TestFingerprintsLocalizeDrift: equal artifacts fingerprint equal per
// section; perturbing one section moves exactly that fingerprint.
func TestFingerprintsLocalizeDrift(t *testing.T) {
	a, b := hashTestArtifact(), hashTestArtifact()
	fa, fb := a.Fingerprints(), b.Fingerprints()
	if len(fa) != 3 {
		t.Fatalf("sections = %v, want outcome/profile/counters", fa)
	}
	for k, v := range fa {
		if fb[k] != v {
			t.Errorf("identical artifacts disagree on fingerprint[%s]", k)
		}
	}

	b.Profile[0].SimSeconds = 121
	fb = b.Fingerprints()
	if fb["profile"] == fa["profile"] {
		t.Error("profile drift did not move the profile fingerprint")
	}
	if fb["outcome"] != fa["outcome"] || fb["counters"] != fa["counters"] {
		t.Error("profile drift leaked into other section fingerprints")
	}
}
