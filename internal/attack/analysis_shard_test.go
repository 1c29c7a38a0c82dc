package attack

import "testing"

func shardTestConfig() MonteCarloConfig {
	return MonteCarloConfig{
		Seed:       1,
		Samples:    500_000,
		EPTPages:   6144,
		HostFrames: 4 * 1024 * 1024,
	}
}

// TestMonteCarloShardInvariance pins the determinism contract: the
// sampled probability must be identical whether the sample range runs
// as 1, 2, or 8 shards, because each sample's draws derive from
// (seed, index) alone.
func TestMonteCarloShardInvariance(t *testing.T) {
	cfg := shardTestConfig()
	want := MonteCarloSuccess(cfg)
	if want <= 0 {
		t.Fatalf("estimate = %v, want > 0", want)
	}
	for _, shards := range []int{1, 2, 8} {
		hits := 0
		for s := 0; s < shards; s++ {
			hits += MonteCarloHits(cfg, s, shards)
		}
		got := float64(hits) / float64(cfg.Samples)
		if got != want {
			t.Errorf("%d shards: estimate = %v, want exactly %v", shards, got, want)
		}
	}

	// Odd shard counts that don't divide the sample count evenly must
	// still cover every index exactly once.
	hits := 0
	for s := 0; s < 7; s++ {
		hits += MonteCarloHits(cfg, s, 7)
	}
	if got := float64(hits) / float64(cfg.Samples); got != want {
		t.Errorf("7 shards: estimate = %v, want exactly %v", got, want)
	}
}

// TestMonteCarloEstimateNearDensity: the estimate must approximate the
// configured EPT-page density (the analytic success probability of a
// uniform landing frame).
func TestMonteCarloEstimateNearDensity(t *testing.T) {
	cfg := shardTestConfig()
	density := float64(cfg.EPTPages) / float64(cfg.HostFrames)
	got := MonteCarloSuccess(cfg)
	if got < density*0.9 || got > density*1.1 {
		t.Fatalf("estimate %v not within 10%% of density %v", got, density)
	}
}

// TestMonteCarloDegenerate: invalid shapes yield zero, never panic.
func TestMonteCarloDegenerate(t *testing.T) {
	if MonteCarloSuccess(MonteCarloConfig{}) != 0 {
		t.Error("zero config should estimate 0")
	}
	cfg := shardTestConfig()
	if MonteCarloHits(cfg, 3, 2) != 0 || MonteCarloHits(cfg, -1, 2) != 0 || MonteCarloHits(cfg, 0, 0) != 0 {
		t.Error("out-of-range shard should count 0")
	}
}
