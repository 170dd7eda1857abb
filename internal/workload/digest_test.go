package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"uvmsim/internal/trace"
)

// catalogDigests pins a SHA-256 of every catalog workload's compiled trace
// (traceDigest) at digestParams, plus SSSP-TWC at degree 16, whose dense
// weighted duplicates exercise graph construction hardest. A change that
// moves any trace fails here; such a change alters simulated results, so
// it must also bump exp.resultsVersion before the new digests are pinned.
var catalogDigests = map[string]string{
	"BC":                "228bb7f654267a07c09b99422c29ea9a9e2724f302196ac28b40b067f75100d5",
	"BFS-DWC":           "927f8d71a501bd5d379a4968d92008366665ca31473eb224d20d38e176beedae",
	"BFS-TA":            "78867711a91a2d6d4b3894a4237a8e65e263dcf45bf9927050f19357ce8afbb2",
	"BFS-TF":            "ab9c63128f7548a1ba051b9ef87cb5085bd00fc7483a3e64c13384dba6565da8",
	"BFS-TTC":           "4c4bc1a08e9b1a63aa2fbf8decd1f6e09c723241968219556949522e02b8b65e",
	"BFS-TWC":           "f87f89a8c7b2a8d9cf0ca5c7421df43f5ffad169912590933362f00b80ec2a08",
	"GC-DTC":            "4dfb4fe317991f7f2b9f4a9c557e5dfe824e0e144da2ec7989a4afb3c414a685",
	"GC-TTC":            "c1da7a4dd61479728e9e35484e657e9e8735bb01ca382fe26b9fa2e8a4f04eab",
	"KCORE":             "5e77d9fd0a9524b42bfddcab8900c1346114b2dfccf2274522e1fb343473ac29",
	"SSSP-TWC":          "2aa4a78da657daa9e00df6d4d4d1956f063794f1325c45e95b2318b300e36525",
	"PR":                "cbd7c10930f9ae7b48fbc473647730bd50748d1e2002fc5de2f082fe4023a72f",
	"CFD":               "63a08d33fd9f9402fd77cb8bcfa46f916eb88e89dee3229427ab0cee6eec0ec9",
	"DWT":               "898a58e87a9cfecfececc91924b8ae59c2f73b0cd72b5e816ecbdb26eca0e6b7",
	"GM":                "40eeb8b82f81ecefcd48ad2a848748579317db56af7d9808f17a6b550384cec5",
	"H3D":               "df38d8852fa4ab8ee7f1293b1cfceeb189edeee82540df739ed7c40193d94a36",
	"HS":                "fc81fa3c43c73c8433ca50d8a9cc20a07603c7a57f8eefe79aa13131c4f7f68a",
	"LUD":               "0e7233e3e387e9500984f953244ce9d432855c95f3cfc0d79f5b48b47350da6d",
	"CC":                "cad7b8f568fd933958b6d14859e3bcdee06ab9a2a5c1721f18ae4ebe413c9b42",
	"TC":                "6176b68d5266d7f918fada54fe775db2d70b9ee7505c10ce1c37f10019a2bb1d",
	"DC":                "0cb72e05c03415c90f1eec4d19adf0c4bea7abe67f4f0255d2d5a022ba9e129b",
	"SSSP-TWC/degree16": "58b29e2ca29892bfb078903c5b9ea677517c71d6dd13f9e4810e32650992fdbe",
}

// digestParams keeps the whole catalog's build and compile near a second.
func digestParams() Params {
	p := Default()
	p.Vertices = 2048
	p.RegularElems = 4096
	return p
}

func TestCatalogTraceDigests(t *testing.T) {
	type point struct {
		key, name string
		p         Params
	}
	var points []point
	for _, name := range All() {
		points = append(points, point{name, name, digestParams()})
	}
	dense := digestParams()
	dense.AvgDegree = 16
	points = append(points, point{"SSSP-TWC/degree16", "SSSP-TWC", dense})

	for _, pt := range points {
		c, err := BuildCompiled(pt.name, pt.p, 32)
		if err != nil {
			t.Fatalf("%s: %v", pt.key, err)
		}
		if got, want := traceDigest(c), catalogDigests[pt.key]; got != want {
			t.Errorf("%s: trace digest %s, pinned %s", pt.key, got, want)
		}
	}
}

// traceDigest hashes a compiled trace: per kernel its name and grid shape,
// then per warp its access count and per access the compute cycles, store
// flag, lane count and lane addresses, all little-endian.
func traceDigest(c *trace.Compiled) string {
	h := sha256.New()
	var buf []byte
	flush := func() {
		h.Write(buf)
		buf = buf[:0]
	}
	for _, k := range c.Kernels() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(k.Name)))
		buf = append(buf, k.Name...)
		for _, v := range []int{k.Blocks, k.ThreadsPerBlock, k.RegsPerThread, k.WarpsPerBlock()} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		for b := 0; b < k.Blocks; b++ {
			for w := 0; w < k.WarpsPerBlock(); w++ {
				cur := k.Stream(b, w)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(cur.Remaining()))
				for {
					a, ok := cur.Next()
					if !ok {
						break
					}
					buf = binary.LittleEndian.AppendUint64(buf, a.ComputeCycles)
					store := byte(0)
					if a.Store {
						store = 1
					}
					buf = append(buf, store)
					buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Addrs)))
					for _, addr := range a.Addrs {
						buf = binary.LittleEndian.AppendUint64(buf, addr)
					}
				}
				flush()
			}
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}
