package main

// The one reader of run artifacts and run-history stores, shared by
// every subcommand that reads what run and tables wrote.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
)

// load reads path as a run artifact, naming path in every error. The
// bytes are checked as JSON before the artifact schema, so a truncated
// or empty file is reported as damaged rather than as some other kind
// of document.
func load(path string) (*runartifact.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, new(json.RawMessage)); err != nil {
		return nil, fmt.Errorf("%s: corrupt or truncated JSON: %v", path, err)
	}
	a, err := runartifact.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// loadArtifacts reads each argument as an artifact file or, when
// storeDir is set, as a run ID in that store, opened once for all of
// them.
func loadArtifacts(name, storeDir string, args []string) ([]*runartifact.Artifact, error) {
	read := load
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
