package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// fuzzSeedArtifacts builds the seed inputs: a valid artifact, assorted
// truncations, and a few classic header lies. The committed corpus under
// testdata/fuzz mirrors these (see TestWriteFuzzCorpus).
func fuzzSeedArtifacts() [][]byte {
	w := sampleWorkload()
	c, err := Compile(w, 32)
	if err != nil {
		panic(err)
	}
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }

	valid := encodeForFuzz(c, ArtifactKey("sample", "hash", 42, 32))
	add(valid)
	add(valid[:len(valid)/2])
	add(valid[:len(artifactMagic)])
	add(nil)
	add([]byte("UVMCMP1\nnot really"))

	small, err := Compile(&Workload{
		Name:    "tiny",
		Space:   w.Space,
		Kernels: []Kernel{{Name: "k", Blocks: 1, ThreadsPerBlock: 1, Emit: w.Kernels[0].Emit}},
	}, 32)
	if err != nil {
		panic(err)
	}
	add(encodeForFuzz(small, ""))
	return seeds
}

func encodeForFuzz(c *Compiled, key string) []byte {
	var buf writerBuf
	if err := WriteCompiledArtifact(&buf, c, key); err != nil {
		panic(err)
	}
	return buf
}

type writerBuf []byte

func (b *writerBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// FuzzReadCompiledArtifact asserts the UVMCMP1 decoder's safety contract:
// arbitrary bytes — truncated, corrupted, or version-skewed — either
// decode to a structurally consistent Compiled or return an error. Never
// a panic, and never a Compiled whose cursors index out of their aliased
// sections. The harness repairs the trailing CRC on a copy so mutations
// reach the structural validators instead of all dying at the checksum.
func FuzzReadCompiledArtifact(f *testing.F) {
	for _, s := range fuzzSeedArtifacts() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		exercise(t, data)
		if len(data) > 8 {
			patched := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(patched[len(patched)-4:],
				crc32.Checksum(patched[:len(patched)-4], artifactCRC))
			exercise(t, patched)
		}
	})
}

// exercise decodes data and, on success, replays every stream — the
// operation a hostile artifact would use to push a cursor out of bounds.
func exercise(t *testing.T, data []byte) {
	c, err := ReadCompiledArtifact(data, "")
	if err != nil {
		return
	}
	w := c.Workload()
	for _, k := range w.Kernels {
		for b := 0; b < k.Blocks; b++ {
			for wp := 0; wp < k.WarpsPerBlock(c.WarpSize); wp++ {
				for st := k.NewWarpStream(b, wp); ; {
					a, ok := st.Next()
					if !ok {
						break
					}
					for _, addr := range a.Addrs {
						_ = addr
					}
				}
			}
		}
	}
	_ = c.Accesses()
	_ = c.AddrWords()
	_ = c.ArtifactBytes()
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzReadCompiledArtifact. It only runs when asked:
//
//	UVMSIM_WRITE_FUZZ_CORPUS=1 go test ./internal/trace -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("UVMSIM_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set UVMSIM_WRITE_FUZZ_CORPUS=1 to rewrite the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadCompiledArtifact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeedArtifacts() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
