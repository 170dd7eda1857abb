package trace

// On-disk compiled-trace artifacts: the persistent tier of Compiled, and
// the repository's only trace file format. The artifact store below
// (shared by uvmsim -artifacts and cmd/experiments) and uvmsim's
// -traceout/-tracein files hold the same bytes.
//
// UVMCMP1 serializes the compiled form: every struct-of-arrays section
// of every kernel is written as raw native-endian memory, length-prefixed
// and 8-byte aligned, so loading an artifact is one sequential read plus
// reslicing. A section is the kernel's segments' raw bytes back to back;
// offsets are kernel-global, so none is rewritten on the way out, and a
// file's bytes do not depend on where capture cut its segments. No
// per-warp or per-lane loop runs on load, and the returned Compiled
// aliases the file buffer directly (near-zero allocations), each kernel
// as a single segment.
//
// Layout (all integers native-endian; every section starts 8-aligned):
//
//	magic    "UVMCMP1\n"                                        8 bytes
//	sentinel 0x0102030405060708 as a native uint64              8 bytes
//	metaLen  uint64                                             8 bytes
//	meta     JSON (artifactMeta), zero-padded to 8              metaLen
//	per kernel (meta.Kernels times):
//	  nameLen  uint64; name bytes, zero-padded to 8
//	  blocks, threadsPerBlock, regsPerThread, warpsPerBlock     4×uint64
//	  warpOff  uint64 count; count×int32,  zero-padded to 8
//	  compute  uint64 count; count×uint64
//	  store    uint64 count; count×byte,   zero-padded to 8
//	  laneOff  uint64 count; count×int32,  zero-padded to 8
//	  addrs    uint64 count; count×uint64
//	crc32c   uint32 little-endian over every preceding byte     4 bytes
//
// The sentinel makes byte order structural: an artifact written on a
// big-endian host reads back as a mismatch (treated as a miss), never as
// silently byte-swapped addresses. The meta header embeds the full cache
// key verbatim — which itself carries the codec version, workload name,
// params hash, seed, and warp size — so a stale or foreign artifact
// self-invalidates on the key comparison before any section is touched.
// The CRC catches torn or bit-rotted files; the structural validation
// pass after it (offsets monotonic, sections mutually consistent, store
// bytes strictly 0/1) guarantees a decoded artifact can never panic a
// cursor or alias non-boolean memory into a []bool, even for adversarial
// inputs that forge the CRC.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"uvmsim/internal/layout"
)

// artifactCodecVersion is the UVMCMP codec generation. It participates in
// ArtifactKey, so bumping it orphans (rather than misreads) old files.
const artifactCodecVersion = 1

var artifactMagic = [8]byte{'U', 'V', 'M', 'C', 'M', 'P', '1', '\n'}

// artifactSentinel, stored native-endian, proves the reader and writer
// agree on byte order before any raw section is aliased.
const artifactSentinel uint64 = 0x0102030405060708

// ErrArtifactMismatch reports an artifact that decoded cleanly but was
// written for a different key (codec version, workload, params, seed, or
// warp size) or a different byte order. Callers treat it as a cache miss.
var ErrArtifactMismatch = errors.New("trace: artifact key mismatch")

// ErrArtifactCorrupt reports an artifact that is truncated, fails its
// checksum, or is structurally inconsistent. Callers treat it as a miss
// and may rewrite the file.
var ErrArtifactCorrupt = errors.New("trace: artifact corrupt")

var artifactCRC = crc32.MakeTable(crc32.Castagnoli)

// artifactMeta is the JSON header of an UVMCMP1 artifact.
type artifactMeta struct {
	Codec     int    `json:"codec"`
	Key       string `json:"key"`
	Workload  string `json:"workload"`
	WarpSize  int    `json:"warp_size"`
	Irregular bool   `json:"irregular"`
	// PageBytes plus Arrays reproduce the layout.Space allocation sequence
	// exactly. Fidelity matters: preloading maps the pages of each array
	// individually, and zero-length arrays reserve a page slot without
	// mapping it, so a collapsed single-array space would change paging
	// behavior (and metrics.Summary) even though every traced address
	// still resolves.
	PageBytes uint64          `json:"page_bytes"`
	Arrays    []artifactArray `json:"arrays"`
	Kernels   int             `json:"kernels"`
}

type artifactArray struct {
	Name      string `json:"name"`
	ElemBytes uint64 `json:"elem_bytes"`
	Len       int    `json:"len"`
}

// ArtifactKey builds the canonical cache key for a compiled artifact. The
// codec version and warp size are structural components, not conventions:
// two builds of the same workload at different warp sizes, or across a
// codec bump, can never collide in the BuildCache or on disk.
func ArtifactKey(workload, paramsHash string, seed uint64, warpSize int) string {
	return fmt.Sprintf("uvmcmp%d|%s|%s|%d|w%d", artifactCodecVersion, workload, paramsHash, seed, warpSize)
}

// ArtifactBytes returns the approximate resident size of the compiled
// workload — the sum of its flat sections plus small fixed overheads. The
// BuildCache uses it for byte-budget accounting, and it tracks the
// encoded artifact size to within the header and padding.
func (c *Compiled) ArtifactBytes() int64 {
	n := int64(len(c.Name)) + 128
	if c.space != nil {
		for _, a := range c.space.Arrays() {
			n += int64(len(a.Name)) + 48
		}
	}
	for i := range c.kernels {
		k := &c.kernels[i]
		n += int64(len(k.Name)) + 96
		// Per access: compute, store and a lane offset; plus the leading
		// lane offset and the address pool.
		n += 4*int64(len(k.warpOff)) + 13*int64(k.accesses()) + 4 + 8*int64(k.addrWords())
	}
	return n
}

// WriteCompiledArtifact encodes c as an UVMCMP1 artifact. key is stored
// verbatim in the header and checked on load; use ArtifactKey to build
// it. The write streams each section's raw memory, segment by segment
// (no staging copy of the address pool).
func WriteCompiledArtifact(w io.Writer, c *Compiled, key string) error {
	if c.space == nil {
		return fmt.Errorf("trace: artifact encode: compiled workload %q has no address space", c.Name)
	}
	meta := artifactMeta{
		Codec:     artifactCodecVersion,
		Key:       key,
		Workload:  c.Name,
		WarpSize:  c.WarpSize,
		Irregular: c.Irregular,
		PageBytes: c.space.PageBytes(),
		Kernels:   len(c.kernels),
	}
	for _, a := range c.space.Arrays() {
		meta.Arrays = append(meta.Arrays, artifactArray{Name: a.Name, ElemBytes: a.ElemBytes, Len: a.Len})
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("trace: artifact encode meta: %w", err)
	}

	crc := crc32.New(artifactCRC)
	out := io.MultiWriter(w, crc)
	var scratch [8]byte
	writeU64 := func(v uint64) error {
		binary.NativeEndian.PutUint64(scratch[:], v)
		_, err := out.Write(scratch[:])
		return err
	}
	var pad [8]byte
	writePadded := func(parts ...[]byte) error {
		n := 0
		for _, b := range parts {
			if _, err := out.Write(b); err != nil {
				return err
			}
			n += len(b)
		}
		if rem := n % 8; rem != 0 {
			if _, err := out.Write(pad[:8-rem]); err != nil {
				return err
			}
		}
		return nil
	}
	writeSection := func(b []byte) error {
		if err := writeU64(uint64(len(b))); err != nil {
			return err
		}
		return writePadded(b)
	}

	if _, err := out.Write(artifactMagic[:]); err != nil {
		return err
	}
	if err := writeU64(artifactSentinel); err != nil {
		return err
	}
	if err := writeU64(uint64(len(metaJSON))); err != nil {
		return err
	}
	if err := writePadded(metaJSON); err != nil {
		return err
	}
	for i := range c.kernels {
		k := &c.kernels[i]
		if err := writeSection([]byte(k.Name)); err != nil {
			return err
		}
		for _, v := range [4]uint64{uint64(k.Blocks), uint64(k.ThreadsPerBlock), uint64(k.RegsPerThread), uint64(k.warpsPerBlock)} {
			if err := writeU64(v); err != nil {
				return err
			}
		}
		// Section counts are element counts; writeSection length-prefixes
		// with the *byte* length, so the count prefix is written first.
		// Each per-access section is the segments' raw bytes back to back.
		// A segment's lane offsets start where the previous segment's end,
		// so each writes all but its first, after the kernel's leading 0.
		var zero [4]byte
		compute, store := make([][]byte, len(k.segs)), make([][]byte, len(k.segs))
		laneOff, addrs := [][]byte{zero[:]}, make([][]byte, len(k.segs))
		for j := range k.segs {
			s := &k.segs[j]
			compute[j], store[j] = uint64Bytes(s.compute), boolBytes(s.store)
			laneOff = append(laneOff, int32Bytes(s.laneOff[1:]))
			addrs[j] = uint64Bytes(s.addrs)
		}
		n := k.accesses()
		sections := []struct {
			n   int
			raw [][]byte
		}{
			{len(k.warpOff), [][]byte{int32Bytes(k.warpOff)}},
			{n, compute},
			{n, store},
			{n + 1, laneOff},
			{k.addrWords(), addrs},
		}
		for _, s := range sections {
			if err := writeU64(uint64(s.n)); err != nil {
				return err
			}
			if err := writePadded(s.raw...); err != nil {
				return err
			}
		}
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	_, err = w.Write(scratch[:4])
	return err
}

// ReadCompiledArtifact decodes an UVMCMP1 artifact from data. The
// returned Compiled aliases data's memory wherever alignment permits
// (copying once into an aligned buffer otherwise), so data must not be
// mutated afterwards. key must match the stored key; pass "" to accept
// any key, as trace-file replay (uvmsim -tracein) does for a file saved
// under a key it cannot know. The key is what pins the warp size, so a
// caller passing "" must compare the returned WarpSize with the warp
// size it simulates (see Compiled.WarpSize). Corrupt or truncated inputs
// return an error wrapping ErrArtifactCorrupt; well-formed artifacts for
// another key, codec version, or byte order return ErrArtifactMismatch.
// The decoder never panics and never aliases memory that could violate
// the returned slices' invariants.
func ReadCompiledArtifact(data []byte, key string) (*Compiled, error) {
	if len(data) < len(artifactMagic)+8+8+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any artifact", ErrArtifactCorrupt, len(data))
	}
	if !bytes.Equal(data[:8], artifactMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrArtifactCorrupt, data[:8])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, artifactCRC), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: checksum %08x != stored %08x", ErrArtifactCorrupt, got, want)
	}

	// Zero-copy needs the backing buffer 8-aligned so the uint64 sections
	// alias legally. Go's allocator aligns large byte slices, but a caller
	// may hand us a subslice; realign with a single copy when it doesn't.
	if uintptr(unsafe.Pointer(unsafe.SliceData(body)))%8 != 0 {
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(make([]uint64, (len(body)+7)/8)))), len(body))
		copy(aligned, body)
		body = aligned
	}

	d := artifactReader{buf: body, off: 8}
	if s, err := d.u64(); err != nil {
		return nil, err
	} else if s != artifactSentinel {
		return nil, fmt.Errorf("%w: byte-order sentinel %016x (foreign-endian artifact)", ErrArtifactMismatch, s)
	}
	metaLen, err := d.u64()
	if err != nil {
		return nil, err
	}
	metaJSON, err := d.bytesPadded(metaLen)
	if err != nil {
		return nil, err
	}
	var meta artifactMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrArtifactCorrupt, err)
	}
	if meta.Codec != artifactCodecVersion {
		return nil, fmt.Errorf("%w: codec v%d, this build reads v%d", ErrArtifactMismatch, meta.Codec, artifactCodecVersion)
	}
	if key != "" && meta.Key != key {
		return nil, fmt.Errorf("%w: stored for %q, requested %q", ErrArtifactMismatch, meta.Key, key)
	}
	if meta.WarpSize <= 0 || meta.WarpSize > 1<<16 {
		return nil, fmt.Errorf("%w: warp size %d", ErrArtifactCorrupt, meta.WarpSize)
	}
	space, err := rebuildSpace(meta)
	if err != nil {
		return nil, err
	}
	if meta.Kernels < 0 || meta.Kernels > 1<<20 {
		return nil, fmt.Errorf("%w: %d kernels", ErrArtifactCorrupt, meta.Kernels)
	}

	c := &Compiled{
		Name:      meta.Workload,
		Irregular: meta.Irregular,
		WarpSize:  meta.WarpSize,
		space:     space,
		kernels:   make([]CompiledKernel, 0, meta.Kernels),
	}
	for i := 0; i < meta.Kernels; i++ {
		k, err := d.kernel(meta.WarpSize)
		if err != nil {
			return nil, fmt.Errorf("kernel %d: %w", i, err)
		}
		c.kernels = append(c.kernels, k)
	}
	if d.off != uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last kernel", ErrArtifactCorrupt, uint64(len(d.buf))-d.off)
	}
	return c, nil
}

// artifactReader walks an aligned artifact buffer with bounds-checked
// primitives; every accessor returns an error instead of slicing out of
// range.
type artifactReader struct {
	buf []byte
	off uint64
}

func (d *artifactReader) u64() (uint64, error) {
	if d.off+8 > uint64(len(d.buf)) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrArtifactCorrupt, d.off)
	}
	v := binary.NativeEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// bytesPadded returns n raw bytes and skips their zero padding to the
// next 8-byte boundary.
func (d *artifactReader) bytesPadded(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)) || d.off+n > uint64(len(d.buf)) {
		return nil, fmt.Errorf("%w: %d-byte section truncated at offset %d", ErrArtifactCorrupt, n, d.off)
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	if rem := n % 8; rem != 0 {
		if d.off+(8-rem) > uint64(len(d.buf)) {
			return nil, fmt.Errorf("%w: padding truncated at offset %d", ErrArtifactCorrupt, d.off)
		}
		d.off += 8 - rem
	}
	return b, nil
}

// section reads a count-prefixed section of count×elemBytes raw bytes.
func (d *artifactReader) section(elemBytes uint64) (uint64, []byte, error) {
	n, err := d.u64()
	if err != nil {
		return 0, nil, err
	}
	if n > maxInt32 {
		return 0, nil, fmt.Errorf("%w: section count %d exceeds int32", ErrArtifactCorrupt, n)
	}
	raw, err := d.bytesPadded(n * elemBytes)
	if err != nil {
		return 0, nil, err
	}
	return n, raw, nil
}

func (d *artifactReader) kernel(warpSize int) (CompiledKernel, error) {
	var k CompiledKernel
	nameLen, err := d.u64()
	if err != nil {
		return k, err
	}
	if nameLen > 1<<16 {
		return k, fmt.Errorf("%w: kernel name %d bytes", ErrArtifactCorrupt, nameLen)
	}
	name, err := d.bytesPadded(nameLen)
	if err != nil {
		return k, err
	}
	k.Name = string(name)
	var hdr [4]uint64
	for i := range hdr {
		if hdr[i], err = d.u64(); err != nil {
			return k, err
		}
		if hdr[i] > maxInt32 {
			return k, fmt.Errorf("%w: kernel header field %d = %d", ErrArtifactCorrupt, i, hdr[i])
		}
	}
	k.Blocks = int(hdr[0])
	k.ThreadsPerBlock = int(hdr[1])
	k.RegsPerThread = int(hdr[2])
	k.warpsPerBlock = int(hdr[3])
	if want := (k.ThreadsPerBlock + warpSize - 1) / warpSize; k.warpsPerBlock != want {
		return k, fmt.Errorf("%w: warps/block %d, %d threads at warp %d need %d", ErrArtifactCorrupt, k.warpsPerBlock, k.ThreadsPerBlock, warpSize, want)
	}

	nWarpOff, warpOffRaw, err := d.section(4)
	if err != nil {
		return k, err
	}
	nCompute, computeRaw, err := d.section(8)
	if err != nil {
		return k, err
	}
	nStore, storeRaw, err := d.section(1)
	if err != nil {
		return k, err
	}
	nLaneOff, laneOffRaw, err := d.section(4)
	if err != nil {
		return k, err
	}
	nAddrs, addrsRaw, err := d.section(8)
	if err != nil {
		return k, err
	}

	if nWarpOff != uint64(k.Blocks)*uint64(k.warpsPerBlock)+1 {
		return k, fmt.Errorf("%w: %d warp offsets for a %d×%d grid", ErrArtifactCorrupt, nWarpOff, k.Blocks, k.warpsPerBlock)
	}
	if nStore != nCompute || nLaneOff != nCompute+1 {
		return k, fmt.Errorf("%w: section counts disagree (compute %d, store %d, laneOff %d)", ErrArtifactCorrupt, nCompute, nStore, nLaneOff)
	}
	// store bytes must be strictly 0/1 before the raw bytes may alias a
	// []bool: any other value would manufacture an invalid Go bool.
	for i, b := range storeRaw {
		if b > 1 {
			return k, fmt.Errorf("%w: store flag %d at access %d", ErrArtifactCorrupt, b, i)
		}
	}
	// A loaded kernel is one segment over the whole file section.
	k.warpOff = aliasInt32(warpOffRaw, int(nWarpOff))
	s := segment{
		compute: aliasUint64(computeRaw, int(nCompute)),
		store:   aliasBool(storeRaw, int(nStore)),
		laneOff: aliasInt32(laneOffRaw, int(nLaneOff)),
		addrs:   aliasUint64(addrsRaw, int(nAddrs)),
	}
	if err := checkOffsets("warp", k.warpOff, int32(nCompute)); err != nil {
		return k, err
	}
	if err := checkOffsets("lane", s.laneOff, int32(nAddrs)); err != nil {
		return k, err
	}
	k.segs = []segment{s}
	return k, nil
}

// checkOffsets verifies an offset array starts at 0, never decreases, and
// ends exactly at the length of the section it indexes — together the
// exact preconditions that make Cursor.at pure index arithmetic.
func checkOffsets(what string, off []int32, end int32) error {
	if len(off) == 0 || off[0] != 0 {
		return fmt.Errorf("%w: %s offsets do not start at 0", ErrArtifactCorrupt, what)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("%w: %s offset %d decreases (%d after %d)", ErrArtifactCorrupt, what, i, off[i], off[i-1])
		}
	}
	if off[len(off)-1] != end {
		return fmt.Errorf("%w: last %s offset %d != section length %d", ErrArtifactCorrupt, what, off[len(off)-1], end)
	}
	return nil
}

// rebuildSpace replays the recorded allocation sequence into a fresh
// layout.Space, bounding every parameter first so a corrupt header cannot
// panic the allocator or overflow the bump pointer.
func rebuildSpace(meta artifactMeta) (*layout.Space, error) {
	pb := meta.PageBytes
	if pb == 0 || pb&(pb-1) != 0 || pb > 1<<30 {
		return nil, fmt.Errorf("%w: page size %d", ErrArtifactCorrupt, pb)
	}
	if len(meta.Arrays) > 1<<20 {
		return nil, fmt.Errorf("%w: %d arrays", ErrArtifactCorrupt, len(meta.Arrays))
	}
	sp := layout.NewSpace(pb)
	var footprint uint64
	for _, a := range meta.Arrays {
		if a.ElemBytes == 0 || a.ElemBytes > 1<<20 || a.Len < 0 || a.Len > maxInt32 {
			return nil, fmt.Errorf("%w: array %q elem %d × %d", ErrArtifactCorrupt, a.Name, a.ElemBytes, a.Len)
		}
		size := a.ElemBytes*uint64(a.Len) + pb // page-rounding upper bound
		footprint += size
		if footprint > 1<<56 {
			return nil, fmt.Errorf("%w: address space footprint overflows", ErrArtifactCorrupt)
		}
		sp.Alloc(a.Name, a.ElemBytes, a.Len)
	}
	return sp, nil
}

// The alias helpers reinterpret a raw byte section as its typed slice
// without copying. Callers guarantee raw holds exactly n elements and —
// via the buffer-wide alignment fix-up in ReadCompiledArtifact plus the
// format's 8-byte section alignment — that raw is suitably aligned.

func aliasInt32(raw []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(raw))), n)
}

func aliasUint64(raw []byte, n int) []uint64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(raw))), n)
}

func aliasBool(raw []byte, n int) []bool {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(unsafe.SliceData(raw))), n)
}

// The *Bytes helpers are the write-side inverses: raw views of the
// in-memory sections, so encoding streams them without staging copies.

func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

func uint64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

func boolBytes(s []bool) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// ArtifactStore is a content-addressed directory of UVMCMP1 artifacts. It
// satisfies the harness.BuildCache disk-tier contract structurally (Load
// and Save below), so the harness package needs no trace import. Files
// are named by the key's SHA-256 and written atomically (temp + rename),
// making one directory safe to share between concurrent uvmsim and
// experiments processes — the same discipline as the result Cache.
type ArtifactStore struct {
	dir string
}

// artifactExt names store files; the codec version is part of the key
// hash, so a codec bump changes filenames too and old files simply go
// cold.
const artifactExt = ".uvmcmp"

// OpenArtifactStore opens (creating if needed) an artifact store rooted
// at dir.
func OpenArtifactStore(dir string) (*ArtifactStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("trace: artifact store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: artifact store: %w", err)
	}
	return &ArtifactStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *ArtifactStore) Dir() string { return s.dir }

func (s *ArtifactStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%x", sum)[:32]+artifactExt)
}

// LoadCompiled reads and decodes the artifact stored under key.
// fs.ErrNotExist surfaces unwrapped so callers can distinguish a cold
// miss from corruption.
func (s *ArtifactStore) LoadCompiled(key string) (*Compiled, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, err
	}
	return ReadCompiledArtifact(data, key)
}

// SaveCompiled encodes c under key atomically. A concurrent writer racing
// on the same key loses nothing: both write identical content and rename
// over each other.
func (s *ArtifactStore) SaveCompiled(key string, c *Compiled) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("trace: artifact store: %w", err)
	}
	if err := WriteCompiledArtifact(tmp, c, key); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("trace: artifact store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("trace: artifact store: %w", err)
	}
	return nil
}

// Load implements the BuildCache disk tier: a decode failure of any kind
// (missing, foreign, corrupt) is just a miss — the cache rebuilds and
// Save overwrites the bad file.
func (s *ArtifactStore) Load(key string) (any, bool) {
	c, err := s.LoadCompiled(key)
	if err != nil {
		return nil, false
	}
	return c, true
}

// Save implements the BuildCache disk tier. Values that are not compiled
// workloads (live-form builds memoize *trace.Workload closures, which
// have no meaningful serialization) report persisted=false without error.
func (s *ArtifactStore) Save(key string, v any) (bool, error) {
	c, ok := v.(*Compiled)
	if !ok {
		return false, nil
	}
	if err := s.SaveCompiled(key, c); err != nil {
		return false, err
	}
	return true, nil
}
