package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// The committed expectations: every simulated statistic an op produces,
// taken at the seed. The simulator is deterministic and the workload
// seed changes only op order and environment values the guests never
// read, so one file per workload serves every seed.
//
//go:embed expect/*.json
var expectFS embed.FS

// expectations checks observed op outputs against the committed ones,
// or, when recording, collects them to be written as the new file.
type expectations[T comparable] struct {
	file   string
	record bool

	mu   sync.Mutex
	want map[string]T
	got  map[string]T
}

// loadExpectations reads expect/<file>.json. When record is set the
// committed file is not needed; observations are collected instead.
func loadExpectations[T comparable](file string, record bool) (*expectations[T], error) {
	e := &expectations[T]{file: file, record: record, got: map[string]T{}}
	if record {
		return e, nil
	}
	data, err := expectFS.ReadFile("expect/" + file + ".json")
	if err != nil {
		return nil, fmt.Errorf("expectations for %s: %w", file, err)
	}
	if err := json.Unmarshal(data, &e.want); err != nil {
		return nil, fmt.Errorf("expectations for %s: %w", file, err)
	}
	return e, nil
}

// check compares one op's output with the expectation under key.
func (e *expectations[T]) check(key string, got T) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.record {
		if prev, ok := e.got[key]; ok && prev != got {
			return fmt.Errorf("%s: output changed between repetitions: %+v then %+v", key, prev, got)
		}
		e.got[key] = got
		return nil
	}
	want, ok := e.want[key]
	if !ok {
		return fmt.Errorf("%s: no committed expectation", key)
	}
	if got != want {
		return fmt.Errorf("%s: got %+v, want %+v", key, got, want)
	}
	return nil
}

// write stores the recorded observations as dir/<file>.json.
func (e *expectations[T]) write(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	data, err := json.MarshalIndent(e.got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, e.file+".json"), append(data, '\n'), 0o644)
}
