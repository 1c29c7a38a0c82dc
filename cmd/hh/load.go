package main

// The one reader of run artifacts and run-history stores, shared by
// every subcommand that reads what run and tables wrote.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
)

// load reads ref as a run artifact, naming ref in every error. ref is
// an artifact file or, when no file is at ref and ref's directory holds
// a store index, the run STORE/RUN-ID in that store. A file's bytes are
// checked as JSON before the artifact schema, so a truncated or empty
// file is reported as damaged rather than as some other kind of
// document.
func load(ref string) (*runartifact.Artifact, error) {
	data, err := os.ReadFile(ref)
	if dir, runID := filepath.Split(ref); errors.Is(err, fs.ErrNotExist) && isStore(dir) {
		st, err := openStore(dir)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		a, err := st.Load(runID)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ref, err)
		}
		return a, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, new(json.RawMessage)); err != nil {
		return nil, fmt.Errorf("%s: corrupt or truncated JSON: %v", ref, err)
	}
	a, err := runartifact.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", ref, err)
	}
	return a, nil
}

// isStore reports whether dir holds a run-history store's index.
func isStore(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, runstore.IndexFile))
	return err == nil
}

// openStore opens an existing run-history store for reading. Unlike
// runstore.Open it never creates one: a mistyped directory is an
// error, not an empty history that passes every gate.
func openStore(dir string) (*runstore.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("%w (produce a store with hh run -store or hh tables -store)", err)
	}
	st, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := st.Repaired(); err != nil {
		fmt.Fprintf(os.Stderr, "hh: warning: %v\n", err)
	}
	return st, nil
}
