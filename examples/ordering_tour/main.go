// Ordering tour: walks through the hierarchy Basker discovers in a circuit
// matrix — the coarse block triangular form, the fine BTF blocks, and the
// nested-dissection tree of the large block — printing the structures the
// paper's Figures 2 and 3 illustrate.
package main

import (
	"fmt"
	"log"

	"repro/internal/matgen"
	"repro/internal/order/btf"
	"repro/internal/order/nd"
	"repro/internal/sparse"
)

func main() {
	a := matgen.Circuit(matgen.CircuitParams{
		N: 3000, BTFPct: 40, Blocks: 80,
		Core: matgen.CoreLadder, ExtraDensity: 0.3, Seed: 11,
	})
	fmt.Printf("input: %d×%d with %d nonzeros\n\n", a.M, a.N, a.Nnz())

	// ---- Coarse structure: MWCM + strongly connected components.
	form, err := btf.Compute(a, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coarse BTF: %d diagonal blocks, largest = %d rows\n",
		form.NumBlocks(), form.LargestBlock())
	fmt.Printf("rows in small blocks (fine-BTF structure): %.1f%%\n",
		form.PercentInSmallBlocks(128))
	hist := map[string]int{}
	for b := 0; b < form.NumBlocks(); b++ {
		size := form.BlockPtr[b+1] - form.BlockPtr[b]
		switch {
		case size == 1:
			hist["1"]++
		case size <= 8:
			hist["2-8"]++
		case size <= 128:
			hist["9-128"]++
		default:
			hist[">128 (fine-ND)"]++
		}
	}
	fmt.Printf("block size histogram: %v\n\n", hist)

	// ---- Fine ND structure of the largest block (the paper's D2).
	perm := a.Permute(form.RowPerm, form.ColPerm)
	big, lo := -1, 0
	for b := 0; b < form.NumBlocks(); b++ {
		if s := form.BlockPtr[b+1] - form.BlockPtr[b]; s > big {
			big, lo = s, form.BlockPtr[b]
		}
	}
	d2 := perm.ExtractBlock(lo, lo+big, lo, lo+big)
	fmt.Printf("largest block D2: %d rows (%d nnz) — %0.f%% of the matrix\n",
		d2.N, d2.Nnz(), 100*float64(d2.N)/float64(a.N))

	tree, err := nd.Compute(d2.SymbolicUnion(), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nested-dissection tree for 4 threads (Figure 3 structure):")
	printTree(tree, tree.NumBlocks()-1, "")

	// Verify the 2D structure: entries only couple ancestor-related blocks.
	blockOf := make([]int, d2.N)
	for b := 0; b < tree.NumBlocks(); b++ {
		for i := tree.BlockPtr[b]; i < tree.BlockPtr[b+1]; i++ {
			blockOf[i] = b
		}
	}
	p := d2.Permute(tree.Perm, tree.Perm)
	violations := countViolations(p, tree, blockOf)
	fmt.Printf("entries coupling unrelated subtrees: %d (must be 0)\n", violations)
}

func printTree(t *nd.Tree, node int, indent string) {
	kind := "separator"
	if t.Height[node] == 0 {
		kind = "leaf"
	}
	fmt.Printf("%s- block %d: %d rows (%s, height %d)\n",
		indent, node, t.BlockSize(node), kind, t.Height[node])
	for b := 0; b < t.NumBlocks(); b++ {
		if t.Parent[b] == node {
			printTree(t, b, indent+"  ")
		}
	}
}

func countViolations(p *sparse.CSC, tree *nd.Tree, blockOf []int) int {
	isAncestor := func(anc, node int) bool {
		for node != -1 {
			if node == anc {
				return true
			}
			node = tree.Parent[node]
		}
		return false
	}
	v := 0
	for j := 0; j < p.N; j++ {
		for q := p.Colptr[j]; q < p.Colptr[j+1]; q++ {
			bi, bj := blockOf[p.Rowidx[q]], blockOf[j]
			if !isAncestor(bi, bj) && !isAncestor(bj, bi) {
				v++
			}
		}
	}
	return v
}
