package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated, never edited:
//
//	go run ./benchmark -manifest > BENCHMARK.json
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := manifest(); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is not what the tables generate; run: go run ./benchmark -manifest > BENCHMARK.json\n--- want\n%s", want)
	}
}

// The driver refuses a manifest outside these limits before a single run.
func TestTablesMeetTheDriverContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not 1-64 of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q declared twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadTable); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	for _, w := range workloadTable {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	bounded, setup := 0, false
	for _, d := range e2eTable {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > 0 {
			bounded++
		}
		for _, w := range d.On {
			if !seen[w] {
				t.Errorf("%s: unknown workload %q", d.Name, w)
			}
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && !d.HigherBetter && d.Bound > 0
			for _, o := range e2eTable {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better, bounded")
	}
	if bounded < 1 || bounded > 16 {
		t.Errorf("%d bounded end-to-end metrics, want 1-16", bounded)
	}
	if n := len(layerTable); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	for _, d := range layerTable {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if !strings.Contains(d.Name, ".") {
			t.Errorf("%s: a per-layer metric is named layer.metric", d.Name)
		}
	}
	if len(manifest()) > 64<<10 {
		t.Error("BENCHMARK.json over 64 KiB")
	}
}

func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	has := func(n string) {
		if !bytes.Contains(readme, []byte("`"+n+"`")) {
			t.Errorf("README.md does not mention `%s`", n)
		}
	}
	for _, w := range workloadTable {
		has(w.Name)
	}
	for _, d := range e2eTable {
		has(d.Name)
	}
	for _, d := range layerTable {
		has(d.Name)
	}
}
