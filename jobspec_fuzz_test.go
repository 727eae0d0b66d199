package rips_test

import (
	"reflect"
	"runtime"
	"testing"

	"rips"
)

// FuzzDecodeJobSpec feeds DecodeJobSpec arbitrary bytes — it decodes
// untrusted HTTP bodies and peer-forwarded documents. No input may
// panic it; a spec it accepts must survive Encode and a second decode
// unchanged; and decoding must allocate at most a constant times the
// input's length (plus a fixed allowance), so a small body cannot make
// the server allocate without limit.
func FuzzDecodeJobSpec(f *testing.F) {
	full, err := rips.JobSpec{
		App: "ida", Size: 2, Tenant: "alice", Priority: "high",
		Config: rips.ConfigJSON{
			Procs: 4, Topology: "tree:2", Algorithm: "rips", Backend: "hybrid",
			Domains: 2, Eager: true, RIDUpdateFactor: 0.5, TimeoutNS: 1e9, Seed: 7,
		},
	}.Encode()
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		full,
		[]byte(`{"app":"nq"}`),
		[]byte(`{"schema":"rips-job/v1","app":"nq","size":13,"config":{"backend":"cluster"}}`),
		[]byte(`{"app":"gromos","size":8,"config":{}} `),
	}
	for _, n := range []int{0, 1, len(full) / 3, len(full) / 2, len(full) - 1} {
		seeds = append(seeds, full[:n]) // truncated documents
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Warm the json package's per-type caches, so the allocation check
	// below sees only what decoding this input costs.
	if _, err := rips.DecodeJobSpec(full); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spec, err := rips.DecodeJobSpec(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+16<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		doc, err := spec.Encode()
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		again, err := rips.DecodeJobSpec(doc)
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", doc, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, spec)
		}
	})
}
