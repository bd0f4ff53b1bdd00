package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/matgen"
	"repro/internal/sparse"
)

// symbolicHash digests every Analyze output the numeric phase consumes:
// the composed permutations, the coarse BTF boundaries, the fine-BTF thread
// partition and factor-size estimates, and per fine-ND block the tree
// boundaries, the Algorithm 3 estimates, the supernode partitions and the
// dense-kernel tags. Slice lengths are mixed in so that a moved boundary
// cannot collide with a shifted value.
func symbolicHash(sym *Symbolic) string {
	h := fnv.New64a()
	var buf [8]byte
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putInts := func(s []int) {
		putInt(len(s))
		for _, v := range s {
			putInt(v)
		}
	}
	putInts(sym.RowPerm)
	putInts(sym.ColPerm)
	putInts(sym.BlockPtr)
	putInt(len(sym.partition))
	for _, part := range sym.partition {
		putInts(part)
	}
	putInts(sym.estNnz)
	for blk, ns := range sym.ndsym {
		if ns == nil {
			continue
		}
		putInt(blk)
		putInts(ns.tree.BlockPtr)
		putInts(ns.est.diagNnz)
		for i := 0; i < ns.nb; i++ {
			putInts(ns.est.lowerNnz[i])
			putInts(ns.est.upperNnz[i])
		}
		putInt(len(ns.snodes))
		for _, xsup := range ns.snodes {
			putInts(xsup)
		}
		putInt(len(ns.dense))
		for _, d := range ns.dense {
			if d {
				putInt(1)
			} else {
				putInt(0)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenSymbolic pins symbolicHash of the default analysis of every suite
// matrix at Threads 1, 2 and 4, recorded from the sort-based symbolic phase
// (double-transpose column sorts, A+Aᵀ re-formed per consumer, sorted
// bottleneck threshold search). Any change to the orderings, partitions,
// estimates or kernel tags shows up here.
var goldenSymbolic = map[string]string{
	"RS_b39c30/t1":         "4b735a3d8ebbe3b4",
	"RS_b39c30/t2":         "1ca64efdcd33e4c5",
	"RS_b39c30/t4":         "dd3ebe5d70214d6f",
	"RS_b678c2/t1":         "d9915604e922e9f9",
	"RS_b678c2/t2":         "d7d0988dd362f9a2",
	"RS_b678c2/t4":         "a069f1dcd639b8fa",
	"Power0/t1":            "02a4d250fe90fe67",
	"Power0/t2":            "f083d126b92fdf87",
	"Power0/t4":            "dca04c40f8a54f17",
	"Circuit5M/t1":         "890f8de3c1a7de5e",
	"Circuit5M/t2":         "e5621660b27ec330",
	"Circuit5M/t4":         "d3b4207b02338144",
	"memplus/t1":           "5a8ae63d91579f13",
	"memplus/t2":           "c1732a1fd6821b37",
	"memplus/t4":           "e7b4708957695ecd",
	"rajat21/t1":           "f447c1f7f936d9b8",
	"rajat21/t2":           "88c886ac602a22d7",
	"rajat21/t4":           "927fbd3f63c736a1",
	"trans5/t1":            "9a286748f5bb3539",
	"trans5/t2":            "85c0f3a4163dc5f0",
	"trans5/t4":            "15381bf2cfeffb90",
	"circuit_4/t1":         "a866438e08da3c47",
	"circuit_4/t2":         "1c5443dc0794e846",
	"circuit_4/t4":         "3abc83be15f9eb02",
	"Xyce0/t1":             "7b00d5563869b300",
	"Xyce0/t2":             "ea4d497494bcd905",
	"Xyce0/t4":             "e04435f5858ac9c6",
	"Xyce4/t1":             "5d6ae8ffb28cc691",
	"Xyce4/t2":             "875acded1479d27a",
	"Xyce4/t4":             "6514e0cbf0516db4",
	"Xyce1/t1":             "5693cd7d6e7397d5",
	"Xyce1/t2":             "ff1a2f7ee66be45c",
	"Xyce1/t4":             "ad7e6033f665302b",
	"asic_680ks/t1":        "3ee40eb947875c8f",
	"asic_680ks/t2":        "64bfb3f7713ac644",
	"asic_680ks/t4":        "b103ae724b62c4d3",
	"bcircuit/t1":          "571d23cd0092b7b9",
	"bcircuit/t2":          "74ffb8f7fd952f6a",
	"bcircuit/t4":          "3c707ccb7f55b201",
	"scircuit/t1":          "6cbbd692bed543ef",
	"scircuit/t2":          "904c1560a19428fb",
	"scircuit/t4":          "b12388dec42b128c",
	"hvdc2/t1":             "caf3a2a64f5477d3",
	"hvdc2/t2":             "7b34bda156f17f54",
	"hvdc2/t4":             "d2606ddc32ea028c",
	"Freescale1/t1":        "1f0eb3017536ee75",
	"Freescale1/t2":        "4a2e044bb141b5c2",
	"Freescale1/t4":        "42ddce78ba0cf544",
	"hcircuit/t1":          "8c1a3ca4ea9b97c4",
	"hcircuit/t2":          "165db3db1a42ed51",
	"hcircuit/t4":          "1a5b21bf671f22c3",
	"Xyce3/t1":             "c22569758d28806a",
	"Xyce3/t2":             "7b16951b090f8209",
	"Xyce3/t4":             "659d36568892847e",
	"memchip/t1":           "ec0c026c5804df12",
	"memchip/t2":           "8b5b1194f305b5d4",
	"memchip/t4":           "69385b5aef47f541",
	"G2_Circuit/t1":        "04754962da6eb9c6",
	"G2_Circuit/t2":        "b78044af1dec43d6",
	"G2_Circuit/t4":        "d75fd108d93a7dae",
	"twotone/t1":           "e0d60ea90dec7aac",
	"twotone/t2":           "430bac166904101a",
	"twotone/t4":           "ed552feb591ca01b",
	"onetone1/t1":          "ea6c659692c667bf",
	"onetone1/t2":          "9803b4d0226277ee",
	"onetone1/t4":          "b9b41a8439e42082",
	"pwtk/t1":              "b25bbc6e292421a5",
	"pwtk/t2":              "03bc6a64b915f963",
	"pwtk/t4":              "01a846f1f1ba1260",
	"ecology/t1":           "4015b90be6efdba5",
	"ecology/t2":           "430803e8a31d3cbf",
	"ecology/t4":           "907937fac2fbde0c",
	"apache2/t1":           "f2708ca6dc6eb7e9",
	"apache2/t2":           "73c2f160933b7c5a",
	"apache2/t4":           "b410206acf6a8666",
	"bmwcra1/t1":           "e2a9f3ecbd0a933c",
	"bmwcra1/t2":           "5a60136500fc3384",
	"bmwcra1/t4":           "f9b71782cbfd017a",
	"parabolic_fem/t1":     "c641c72e7a847d23",
	"parabolic_fem/t2":     "73fcff83138a5679",
	"parabolic_fem/t4":     "631f8b2a1c94e70c",
	"helm2d03/t1":          "e8903a74612a78f0",
	"helm2d03/t2":          "4c81385f1ee58845",
	"helm2d03/t4":          "ddc888cbaea05834",
	"XyceSequenceBase4/t1": "92519ed0e747f8f5",
	"XyceSequenceBase4/t2": "b9f7d485ab78af5e",
	"XyceSequenceBase4/t4": "8ba5e0c49e8809e3",
}

func TestSymbolicGoldenLockdown(t *testing.T) {
	type input struct {
		name string
		gen  func() *sparse.CSC
	}
	var inputs []input
	for _, m := range append(matgen.TableISuite(1), matgen.TableIISuite(1)...) {
		inputs = append(inputs, input{m.Name, m.Gen})
	}
	inputs = append(inputs, input{"XyceSequenceBase4", func() *sparse.CSC { return matgen.XyceSequenceBase(4) }})
	for _, in := range inputs {
		a := in.gen()
		for _, threads := range []int{1, 2, 4} {
			opts := DefaultOptions()
			opts.Threads = threads
			sym, err := Analyze(a, opts)
			if err != nil {
				t.Fatalf("%s threads=%d: %v", in.name, threads, err)
			}
			key := fmt.Sprintf("%s/t%d", in.name, threads)
			got := symbolicHash(sym)
			if want, ok := goldenSymbolic[key]; !ok || got != want {
				t.Errorf("%q: %q, // want %q", key, got, want)
			}
		}
	}
}
