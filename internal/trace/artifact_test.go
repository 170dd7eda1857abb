package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"uvmsim/internal/layout"
)

// artifactBytes encodes c under key and returns the raw artifact.
func artifactBytes(t *testing.T, c *Compiled, key string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCompiledArtifact(&buf, c, key); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// patchCRC recomputes the trailing checksum after a deliberate mutation,
// so tests exercise the structural validators rather than the CRC.
func patchCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], artifactCRC))
}

func TestArtifactRoundTrip(t *testing.T) {
	w := sampleWorkload()
	for _, ws := range []int{16, 32, 64} {
		c, err := Compile(w, ws)
		if err != nil {
			t.Fatal(err)
		}
		key := ArtifactKey(w.Name, "deadbeef", 42, ws)
		data := artifactBytes(t, c, key)
		got, err := ReadCompiledArtifact(data, key)
		if err != nil {
			t.Fatalf("warp %d: %v", ws, err)
		}
		if got.Name != c.Name || got.Irregular != c.Irregular || got.WarpSize != ws {
			t.Fatalf("warp %d: metadata mismatch: %q/%v/%d", ws, got.Name, got.Irregular, got.WarpSize)
		}
		accessesEqual(t, "artifact roundtrip", drainAllWarp(w, ws), drainAllWarp(got.Workload(), ws))
	}
}

// TestArtifactSpaceFidelity pins the address-space round trip: every
// array — name, base, element size, length, zero-length page slots
// included — must come back exactly, because preloading maps pages per
// array and a collapsed space would change paging results even though
// every traced address still resolves.
func TestArtifactSpaceFidelity(t *testing.T) {
	sp := layout.NewSpace(4 << 10)
	sp.Alloc("offsets", 8, 1000)
	sp.Alloc("empty-frontier", 4, 0) // occupies a page slot, maps nothing
	sp.Alloc("edges", 4, 12345)
	w := &Workload{
		Name:  "space-fidelity",
		Space: sp,
		Kernels: []Kernel{withAccesses(Kernel{Name: "k", Blocks: 1, ThreadsPerBlock: 32},
			func(block, warp int) []Access {
				return []Access{{ComputeCycles: 1, Addrs: []uint64{sp.Arrays()[0].Addr(0)}}}
			})},
	}
	c, err := Compile(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCompiledArtifact(artifactBytes(t, c, "k"), "k")
	if err != nil {
		t.Fatal(err)
	}
	gsp := got.Workload().Space
	if gsp.PageBytes() != sp.PageBytes() || gsp.FootprintBytes() != sp.FootprintBytes() {
		t.Fatalf("space geometry: pages %d/%d footprint %d/%d",
			gsp.PageBytes(), sp.PageBytes(), gsp.FootprintBytes(), sp.FootprintBytes())
	}
	want, have := sp.Arrays(), gsp.Arrays()
	if len(want) != len(have) {
		t.Fatalf("arrays %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("array %d: %+v != %+v", i, have[i], want[i])
		}
	}
}

// TestArtifactKeyStructural: every component that changes the compiled
// artifact, the warp size included, must change the key, so cross-warp
// (or cross-codec) collisions are impossible by construction rather than
// by caller convention.
func TestArtifactKeyStructural(t *testing.T) {
	base := ArtifactKey("BFS-TTC", "abc123", 42, 32)
	variants := []string{
		ArtifactKey("BFS-TTC", "abc123", 42, 16), // warp size
		ArtifactKey("BFS-TTC", "abc123", 43, 32), // seed
		ArtifactKey("BFS-TTC", "abc124", 42, 32), // params hash
		ArtifactKey("BFS-TTX", "abc123", 42, 32), // workload
	}
	seen := map[string]bool{base: true}
	for _, v := range variants {
		if seen[v] {
			t.Fatalf("key collision: %q", v)
		}
		seen[v] = true
	}
	if want := "uvmcmp1|"; base[:len(want)] != want {
		t.Fatalf("codec version not structural in key %q", base)
	}
}

func TestArtifactKeyAndVersionMismatch(t *testing.T) {
	c, err := Compile(sampleWorkload(), 32)
	if err != nil {
		t.Fatal(err)
	}
	key := ArtifactKey("sample", "hash", 1, 32)
	data := artifactBytes(t, c, key)

	if _, err := ReadCompiledArtifact(data, ArtifactKey("sample", "hash", 2, 32)); !errors.Is(err, ErrArtifactMismatch) {
		t.Fatalf("wrong key: got %v, want ErrArtifactMismatch", err)
	}
	if _, err := ReadCompiledArtifact(data, key); err != nil {
		t.Fatalf("right key: %v", err)
	}
	if _, err := ReadCompiledArtifact(data, ""); err != nil {
		t.Fatalf("unpinned key: %v", err)
	}

	// Version skew: rewrite "codec":1 to "codec":9 in the meta JSON (same
	// length, so offsets survive) and repair the CRC. The decoder must
	// refuse with a mismatch, not misparse.
	skew := bytes.Replace(append([]byte(nil), data...), []byte(`"codec":1`), []byte(`"codec":9`), 1)
	patchCRC(skew)
	if _, err := ReadCompiledArtifact(skew, key); !errors.Is(err, ErrArtifactMismatch) {
		t.Fatalf("codec skew: got %v, want ErrArtifactMismatch", err)
	}
}

// TestArtifactCorruptionRejected drives the decoder over truncations and
// targeted mutations; every one must fail with an error — never a panic,
// and never a Compiled aliasing inconsistent sections.
func TestArtifactCorruptionRejected(t *testing.T) {
	c, err := Compile(sampleWorkload(), 32)
	if err != nil {
		t.Fatal(err)
	}
	data := artifactBytes(t, c, "k")

	for cut := 0; cut < len(data); cut += 7 {
		if _, err := ReadCompiledArtifact(data[:cut], "k"); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte)
	}{
		{"bad magic", func(b []byte) { b[0] ^= 0xff }},
		{"flipped sentinel", func(b []byte) { b[8] ^= 0x01 }},
		{"bit rot without CRC repair", func(b []byte) { b[len(b)/2] ^= 0x40 }},
		{"trailing garbage", nil},
	} {
		mut := append([]byte(nil), data...)
		if tc.mutate != nil {
			tc.mutate(mut)
			if tc.name != "bit rot without CRC repair" {
				patchCRC(mut)
			}
		} else {
			mut = append(mut[:len(mut)-4], 0, 0, 0, 0, 0, 0, 0, 0)
			mut = append(mut, 0, 0, 0, 0)
			patchCRC(mut)
		}
		if _, err := ReadCompiledArtifact(mut, "k"); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}

	// Store flags live in the last kernel sections; flip every byte in
	// turn (repairing the CRC each time) and require either a clean error
	// or a still-consistent Compiled that replays without panicking.
	for off := 24; off < len(data)-4; off += 13 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x02
		patchCRC(mut)
		got, err := ReadCompiledArtifact(mut, "")
		if err != nil {
			continue
		}
		w := got.Workload()
		for _, k := range w.Kernels {
			for b := 0; b < k.Blocks; b++ {
				for wp := 0; wp < k.WarpsPerBlock(got.WarpSize); wp++ {
					DrainWarp(k, b, wp, nil)
				}
			}
		}
	}
}

func TestArtifactStore(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sampleWorkload(), 32)
	if err != nil {
		t.Fatal(err)
	}
	key := ArtifactKey("sample", "h", 42, 32)

	if _, err := store.LoadCompiled(key); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("cold load: %v, want fs.ErrNotExist", err)
	}
	if v, hit := store.Load(key); hit || v != nil {
		t.Fatal("tier Load hit on empty store")
	}
	if persisted, err := store.Save(key, sampleWorkload()); persisted || err != nil {
		t.Fatalf("tier Save of a live workload: persisted=%v err=%v", persisted, err)
	}
	if persisted, err := store.Save(key, c); !persisted || err != nil {
		t.Fatalf("tier Save: persisted=%v err=%v", persisted, err)
	}
	got, err := store.LoadCompiled(key)
	if err != nil {
		t.Fatal(err)
	}
	accessesEqual(t, "store roundtrip", drainAll(c.Workload()), drainAll(got.Workload()))

	// One artifact and no stray temp files after atomic writes.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("store holds %d files, want 1", len(ents))
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != artifactExt {
			t.Fatalf("stray file %q in store", e.Name())
		}
	}

	// A corrupt file on disk is a tier miss, not an error.
	path := store.path(key)
	raw, _ := os.ReadFile(path)
	raw[len(raw)/2] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	if _, hit := store.Load(key); hit {
		t.Fatal("tier Load returned a corrupt artifact")
	}
}

// TestArtifactLoadAllocs pins the zero-copy claim at the unit level: a
// load performs a bounded handful of allocations (header, space, kernel
// slices) regardless of trace size. BenchmarkCompiledBuildVsLoad in
// internal/workload measures the real ratio against a fresh build on a
// Table-1 workload.
func TestArtifactLoadAllocs(t *testing.T) {
	c, err := Compile(sampleWorkload(), 32)
	if err != nil {
		t.Fatal(err)
	}
	data := artifactBytes(t, c, "k")
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ReadCompiledArtifact(data, "k"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("artifact load allocates %v times; the decode loop is back", allocs)
	}
}
