package rips_test

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"rips"
)

// TestClusterConfigValidate pins the Cluster backend's cross-checks:
// the cluster runs the phase protocol only, across processes — so no
// Steal variant, no periodic detector, no local pool, no affinity
// domains.
func TestClusterConfigValidate(t *testing.T) {
	valid := rips.Config{Procs: 4, Backend: rips.Cluster}
	if err := valid.Validate(); err != nil {
		t.Fatalf("minimal cluster config rejected: %v", err)
	}

	cases := []struct {
		name string
		cfg  rips.Config
		want string
	}{
		{"steal algorithm", rips.Config{Procs: 4, Backend: rips.Cluster, Algorithm: rips.Steal}, "Algorithm must be RIPS"},
		{"periodic detector", rips.Config{Procs: 4, Backend: rips.Cluster, Periodic: rips.Time(1)}, "periodic detector"},
		{"local pool", rips.Config{Procs: 4, Backend: rips.Cluster, Pool: mustPool(t, 2)}, "not a local worker pool"},
		{"domains", rips.Config{Procs: 4, Backend: rips.Cluster, Domains: 2}, "Hybrid backend"},
		{"negative timeout", rips.Config{Procs: 4, Backend: rips.Cluster, Timeout: -time.Second}, "Timeout"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func mustPool(t *testing.T, n int) *rips.Pool {
	t.Helper()
	p, err := rips.NewPool(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestRunRefusesCluster pins that the in-process entry points refuse
// cluster configs with a pointer at the right front door.
func TestRunRefusesCluster(t *testing.T) {
	cfg, err := rips.NewConfig(rips.WithWorkers(4), rips.WithBackend(rips.Cluster))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rips.RunContext(context.Background(), rips.NQueens(6), cfg)
	if err == nil {
		t.Fatal("RunContext executed a cluster config in-process")
	}
	if !strings.Contains(err.Error(), "-cluster") {
		t.Errorf("error %q does not point at ripsd -cluster", err)
	}
}

// TestOptionsConfigRoundTrip is the options ↔ wire-config property
// test: a Config assembled from the full option surface must survive
// EncodeConfig → Decode bit for bit, Timeout included — the document a
// ripsd stores or a cluster peer receives reconstructs the exact
// configuration the options built.
func TestOptionsConfigRoundTrip(t *testing.T) {
	cfg, err := rips.NewConfig(
		rips.WithMesh(2, 3),
		rips.WithAlgorithm(rips.RIPS),
		rips.WithBackend(rips.Cluster),
		rips.WithEager(),
		rips.WithAll(),
		rips.WithRIDUpdateFactor(0.5),
		rips.WithInitBackoff(rips.Time(2000)),
		rips.WithTimeout(3*time.Second),
		rips.WithSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rips.EncodeConfig(cfg).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("round-trip:\n got %+v\nwant %+v", got, cfg)
	}
	if got.Timeout != 3*time.Second {
		t.Errorf("Timeout lost in transit: %v", got.Timeout)
	}
}

// TestJobSpecEncodeDecode pins the rips-job/v1 codec: stamping,
// lossless round-trips, and strict rejection of unknown fields, schema
// skew and trailing bytes — the submission semantics shared verbatim
// by POST /v1/jobs and cluster peer forwarding.
func TestJobSpecEncodeDecode(t *testing.T) {
	spec := rips.JobSpec{
		App:      "nq",
		Size:     12,
		Config:   rips.ConfigJSON{Backend: "cluster", Topology: "mesh", Seed: 7},
		Tenant:   "acme",
		Priority: "high",
	}
	data, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rips.DecodeJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != rips.JobSpecSchema {
		t.Errorf("decoded schema %q, want %q", got.Schema, rips.JobSpecSchema)
	}
	want := spec
	want.Schema = rips.JobSpecSchema
	if got != want {
		t.Fatalf("round-trip:\n got %+v\nwant %+v", got, want)
	}

	// A bare submission is version 1, stamped on the way out.
	bare, err := rips.DecodeJobSpec([]byte(`{"app": "nq"}`))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Schema != rips.JobSpecSchema || bare.App != "nq" {
		t.Errorf("bare decode = %+v", bare)
	}

	for name, body := range map[string]string{
		"unknown top-level field": `{"app": "nq", "procs": 4}`,
		"unknown config field":    `{"app": "nq", "config": {"workers": 4}}`,
		"schema skew":             `{"schema": "rips-job/v2", "app": "nq"}`,
		"trailing data":           `{"app": "nq"}{"app": "ida"}`,
		"not an object":           `"nq"`,
	} {
		if _, err := rips.DecodeJobSpec([]byte(body)); err == nil {
			t.Errorf("%s: decoder accepted %s", name, body)
		}
	}
}

// TestAppRegistry pins the public registry surface: built-in families
// resolve, sizes validate, unknown names error listing what exists,
// and duplicate registration panics like duplicate http.Handle
// patterns.
func TestAppRegistry(t *testing.T) {
	names := rips.Apps()
	for _, want := range []string{"gromos", "ida", "nq"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Apps() = %v, missing built-in %q", names, want)
		}
	}
	// Resolvable names and sizes; size 0 selects each family's default.
	for _, c := range []struct {
		family string
		size   int
		name   string
	}{
		{"nq", 0, "13-queens"},
		{"nq", 8, "8-queens"},
		{"nq", 9, "9-queens"},
		{"ida", 0, "15-puzzle #1"},
		{"ida", 2, "15-puzzle #2"},
		{"gromos", 0, "gromos 8A"},
		{"gromos", 12, "gromos 12A"},
	} {
		a, err := rips.LookupApp(c.family, c.size)
		if err != nil {
			t.Errorf("LookupApp(%q, %d): %v", c.family, c.size, err)
			continue
		}
		if a.Name() != c.name {
			t.Errorf("LookupApp(%q, %d).Name() = %q, want %q", c.family, c.size, a.Name(), c.name)
		}
	}
	// Out-of-range sizes and unknown families are refused.
	for _, c := range []struct {
		family string
		size   int
	}{
		{"nq", 3}, {"ida", 4}, {"ida", 9}, {"ida", -1}, {"gromos", -8}, {"chess", 0},
	} {
		if _, err := rips.LookupApp(c.family, c.size); err == nil {
			t.Errorf("LookupApp(%q, %d) succeeded, want error", c.family, c.size)
		}
	}
	_, err := rips.LookupApp("nope", 0)
	if err == nil {
		t.Fatal("LookupApp(nope) resolved")
	}
	if !strings.Contains(err.Error(), "nq") {
		t.Errorf("unknown-family error %q does not list the registered families", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterApp did not panic")
		}
	}()
	rips.RegisterApp("nq", func(int) (rips.App, error) { return nil, nil })
}
