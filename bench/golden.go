package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
)

// goldenSeeds are the run seeds the golden file covers: 1 is the seed
// used while developing, 2 the held-out seed.
var goldenSeeds = []uint64{1, 2}

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile maps workload → pass seed → the FNV-1a digest of every
// result row of that pass, in order.
type goldenFile map[string]map[string][]string

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	return g, nil
}

func (g goldenFile) lookup(workload string, seed uint64) ([]string, bool) {
	d, ok := g[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

func rowDigest(row string) string {
	h := fnv.New64a()
	h.Write([]byte(row))
	return fmt.Sprintf("%016x", h.Sum64())
}

func rowDigests(rows []string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowDigest(r)
	}
	return out
}

// writeGolden records the digests of the first passes of every
// workload at the golden seeds, untraced.
func writeGolden(path string) error {
	g := goldenFile{}
	for _, w := range workloads {
		g[w.name] = map[string][]string{}
		for _, seed := range goldenSeeds {
			for i := 0; i < w.goldenPasses; i++ {
				s := passSeed(seed, i)
				rec := runPass(w, s, false, false, timed)
				if rec.err != nil {
					return fmt.Errorf("golden: %s seed %d: %w", w.name, s, rec.err)
				}
				g[w.name][strconv.FormatUint(s, 10)] = rowDigests(rec.rows)
			}
		}
	}
	return writeJSON(path, g)
}
