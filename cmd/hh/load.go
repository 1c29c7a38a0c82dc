package main

// The one reader of run documents and run-history stores, shared by
// every subcommand that reads what run and tables wrote.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"hyperhammer/internal/benchfmt"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
)

// load reads path as a run artifact or a benchmark document. Exactly
// one of the returns is non-nil on success.
//
// The kind is sniffed before full decoding so a damaged file is
// reported for what it is: a truncated artifact used to fall through
// to the bench decoder and surface as a baffling "not a bench
// document" error.
func load(path string) (*runartifact.Artifact, *benchfmt.Output, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var probe struct {
		Version     int             `json:"version"`
		GeneratedAt string          `json:"generatedAt"`
		Benchmarks  json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("%s: corrupt or truncated JSON: %v", path, err)
	}
	if probe.Version != 0 {
		a, err := runartifact.Read(bytes.NewReader(data))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		return a, nil, nil
	}
	if probe.GeneratedAt == "" && probe.Benchmarks == nil {
		return nil, nil, fmt.Errorf("%s: neither a run artifact (no version field) nor a bench document", path)
	}
	var out benchfmt.Output
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, nil, fmt.Errorf("%s: corrupt bench document: %v", path, err)
	}
	return nil, &out, nil
}

// loadArtifact reads path as a run artifact.
func loadArtifact(path string) (*runartifact.Artifact, error) {
	a, _, err := load(path)
	if err == nil && a == nil {
		err = fmt.Errorf("%s: a bench document, not a run artifact", path)
	}
	return a, err
}

// loadBench reads path as a benchmark document.
func loadBench(path string) (*benchfmt.Output, error) {
	_, b, err := load(path)
	if err == nil && (b == nil || b.Benchmarks == nil) {
		err = fmt.Errorf("%s: not a bench document (no benchmarks field)", path)
	}
	return b, err
}

// loadArtifacts reads each argument as an artifact file or, when
// storeDir is set, as a run ID in that store, opened once for all of
// them.
func loadArtifacts(name, storeDir string, args []string) ([]*runartifact.Artifact, error) {
	read := loadArtifact
	if storeDir != "" {
		st, err := openStore(name, storeDir)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		read = st.Load
	}
	arts := make([]*runartifact.Artifact, len(args))
	for i, arg := range args {
		a, err := read(arg)
		if err != nil {
			return nil, err
		}
		arts[i] = a
	}
	return arts, nil
}

// openStore opens an existing run-history store for reading on behalf
// of subcommand name. Unlike runstore.Open it never creates one: a
// mistyped directory is an error, not an empty history that passes
// every gate.
func openStore(name, dir string) (*runstore.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("%w (produce a store with hh run -store or hh tables -store)", err)
	}
	st, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := st.Repaired(); err != nil {
		fmt.Fprintf(os.Stderr, "hh %s: warning: %v\n", name, err)
	}
	return st, nil
}
