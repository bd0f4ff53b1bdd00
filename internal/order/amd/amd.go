// Package amd implements an approximate minimum degree (AMD) fill-reducing
// ordering in the style of Amestoy, Davis and Duff (SIAM J. Matrix Anal.
// Appl. 17(4), 1996), the ordering KLU and Basker apply to every BTF
// diagonal block.
//
// The implementation works on the quotient graph: eliminated vertices become
// *elements* whose adjacency lists represent cliques implicitly. It uses
//   - element absorption (an element whose variables are all covered by the
//     newly formed element is removed),
//   - the Amestoy–Davis–Duff approximate external degree computed with the
//     one-pass |Le \ Lk| scan,
//   - supervariable detection by adjacency hashing and exact comparison,
//   - lazy deletion with on-demand workspace compaction.
package amd

import (
	"cmp"
	"slices"

	"repro/internal/sparse"
)

type hashEntry struct{ i, hash int }

type amdState struct {
	n    int
	pe   []int // start of adjacency block in iw (variables and elements)
	blen []int // total adjacency length (elements then variables)
	elen []int // number of leading element entries (variables only)
	nv   []int // supervariable size; 0 = dead (absorbed or eliminated)
	deg  []int // approximate external degree (vars) / |Le| in nv units (elems)
	dead []bool

	iw     []int
	iwTail int

	// degree lists
	head []int
	next []int
	prev []int

	// marks
	w    []int
	wflg int
	inLk []int
	tag  int

	// Supervariable members as linked lists: member i's successor is
	// memberNext[i] (-1 ends the list) and memberTail[i] is the last member
	// of the supervariable headed by i.
	memberNext []int
	memberTail []int
	order      []int
	nLive      int
	mindeg     int

	// Per-step scratch, reused across eliminations.
	scratch []int // copy of an adjacency block during rewrites
	lk      []int
	hashes  []hashEntry
	live    []liveBlock
}

// liveBlock is one live adjacency block during workspace compaction.
type liveBlock struct{ id, pe int }

// Order computes a fill-reducing elimination order for the symmetric pattern
// g (typically a.SymbolicUnion(), formed once and shared with the
// elimination-tree passes; the diagonal is ignored). It returns a
// new-to-old permutation p: eliminating the vertices of g(p,p) in natural
// order yields low fill.
func Order(g *sparse.CSC) []int {
	n := g.N
	if n == 0 {
		return []int{}
	}
	if n == 1 {
		return []int{0}
	}
	s := &amdState{
		n:          n,
		pe:         make([]int, n),
		blen:       make([]int, n),
		elen:       make([]int, n),
		nv:         make([]int, n),
		deg:        make([]int, n),
		dead:       make([]bool, n),
		iw:         make([]int, g.Nnz()+n+1),
		head:       make([]int, n+1),
		next:       make([]int, n),
		prev:       make([]int, n),
		w:          make([]int, n),
		inLk:       make([]int, n),
		memberNext: make([]int, n),
		memberTail: make([]int, n),
		order:      make([]int, 0, n),
		nLive:      n,
	}
	for i := range s.head {
		s.head[i] = -1
	}
	pos := 0
	for j := 0; j < n; j++ {
		s.pe[j] = pos
		for _, i := range g.Rowidx[g.Colptr[j]:g.Colptr[j+1]] {
			if i != j {
				s.iw[pos] = i
				pos++
			}
		}
		s.blen[j] = pos - s.pe[j]
		s.deg[j] = s.blen[j]
		s.nv[j] = 1
		s.memberNext[j] = -1
		s.memberTail[j] = j
		s.listInsert(j, s.deg[j])
	}
	s.iwTail = pos

	for s.nLive > 0 {
		k := s.pickMinDegree()
		s.eliminate(k)
	}
	return s.order
}

func (s *amdState) listInsert(i, d int) {
	s.next[i] = s.head[d]
	s.prev[i] = -1
	if s.head[d] != -1 {
		s.prev[s.head[d]] = i
	}
	s.head[d] = i
	if d < s.mindeg {
		s.mindeg = d
	}
}

func (s *amdState) listRemove(i, d int) {
	if s.prev[i] != -1 {
		s.next[s.prev[i]] = s.next[i]
	} else {
		s.head[d] = s.next[i]
	}
	if s.next[i] != -1 {
		s.prev[s.next[i]] = s.prev[i]
	}
}

func (s *amdState) pickMinDegree() int {
	for s.mindeg <= s.n {
		if h := s.head[s.mindeg]; h != -1 {
			s.listRemove(h, s.mindeg)
			return h
		}
		s.mindeg++
	}
	panic("amd: degree lists empty while variables remain")
}

// ensureSpace guarantees room for extra entries at iwTail, compacting the
// workspace (dropping dead blocks) and growing it if compaction is not
// enough.
func (s *amdState) ensureSpace(extra int) {
	if s.iwTail+extra <= len(s.iw) {
		return
	}
	s.compact()
	if s.iwTail+extra > len(s.iw) {
		grown := make([]int, (s.iwTail+extra)*2)
		copy(grown, s.iw[:s.iwTail])
		s.iw = grown
	}
}

func (s *amdState) compact() {
	live := s.live[:0]
	for i := 0; i < s.n; i++ {
		if s.dead[i] {
			continue
		}
		live = append(live, liveBlock{i, s.pe[i]})
	}
	s.live = live
	slices.SortFunc(live, func(a, b liveBlock) int { return cmp.Compare(a.pe, b.pe) })
	pos := 0
	for _, b := range live {
		l := s.blen[b.id]
		copy(s.iw[pos:pos+l], s.iw[b.pe:b.pe+l])
		s.pe[b.id] = pos
		pos += l
	}
	s.iwTail = pos
}

// eliminate removes supervariable k, forms element k, and updates degrees of
// all variables in the new element's pattern.
func (s *amdState) eliminate(k int) {
	// ---- Build Lk: live variables adjacent to k directly or via k's
	// elements. Mark membership with inLk tags.
	s.tag++
	tag := s.tag
	lk := s.lk[:0]
	base := s.pe[k]
	for t := 0; t < s.blen[k]; t++ {
		e := s.iw[base+t]
		if t < s.elen[k] {
			// element neighbour
			if s.dead[e] {
				continue
			}
			eb := s.pe[e]
			for u := 0; u < s.blen[e]; u++ {
				v := s.iw[eb+u]
				if s.nv[v] > 0 && v != k && s.inLk[v] != tag {
					s.inLk[v] = tag
					lk = append(lk, v)
				}
			}
			s.dead[e] = true // absorbed into new element k
		} else {
			v := e
			if s.nv[v] > 0 && v != k && s.inLk[v] != tag {
				s.inLk[v] = tag
				lk = append(lk, v)
			}
		}
	}

	s.lk = lk

	// Emit k's variables in the final order.
	for v := k; v != -1; v = s.memberNext[v] {
		s.order = append(s.order, v)
	}
	s.nLive -= s.nv[k]
	s.nv[k] = 0
	s.dead[k] = true

	if len(lk) == 0 {
		return
	}

	// Store Lk as element k's list.
	s.dead[k] = false // k lives on as an element
	s.ensureSpace(len(lk))
	s.pe[k] = s.iwTail
	copy(s.iw[s.iwTail:], lk)
	s.iwTail += len(lk)
	s.blen[k] = len(lk)
	s.elen[k] = 0
	degLk := 0
	for _, v := range lk {
		degLk += s.nv[v]
	}
	s.deg[k] = degLk

	// ---- Scan 1: compute w[e] so that |Le \ Lk| = w[e] - wflg for every
	// element e adjacent to a variable in Lk.
	s.wflg += 2 * (s.n + 2)
	wflg := s.wflg
	for _, i := range lk {
		ib := s.pe[i]
		for t := 0; t < s.elen[i]; t++ {
			e := s.iw[ib+t]
			if s.dead[e] || e == k {
				continue
			}
			if s.w[e] < wflg {
				s.w[e] = s.deg[e] + wflg
			}
			s.w[e] -= s.nv[i]
		}
	}

	// ---- Scan 2: rewrite adjacency of each i in Lk, compute approximate
	// degree, detect supervariables.
	hashes := s.hashes[:0]
	for _, i := range lk {
		if s.nv[i] <= 0 {
			continue // merged away earlier in this scan (defensive)
		}
		s.listRemove(i, s.deg[i])
		ib := s.pe[i]
		// Rewrite happens in place; read from a scratch copy so writing the
		// new leading entry (element k) cannot clobber unread entries.
		s.scratch = append(s.scratch[:0], s.iw[ib:ib+s.blen[i]]...)
		d := 0
		hash := k
		// Elements: keep live ones with |Le \ Lk| > 0.
		out := ib
		s.iw[out] = k
		out++
		for t := 0; t < s.elen[i]; t++ {
			e := s.scratch[t]
			if e == k || s.dead[e] {
				continue
			}
			ext := s.w[e] - wflg
			if ext <= 0 {
				// Le ⊆ Lk ∪ {i}: absorb e into k.
				s.dead[e] = true
				continue
			}
			d += ext
			s.iw[out] = e
			out++
			hash += e
		}
		newElen := out - ib
		// Variables: keep live ones outside Lk (and not k itself).
		for t := s.elen[i]; t < s.blen[i]; t++ {
			v := s.scratch[t]
			if v == k || s.nv[v] <= 0 || s.inLk[v] == tag {
				continue
			}
			d += s.nv[v]
			s.iw[out] = v
			out++
			hash += v
		}
		s.elen[i] = newElen
		s.blen[i] = out - ib
		d += degLk - s.nv[i] // |Lk \ i| in nv units
		if lim := s.nLive - s.nv[i]; d > lim {
			d = lim
		}
		if d < 0 {
			d = 0
		}
		s.deg[i] = d
		s.listInsert(i, d)
		if hash < 0 {
			hash = -hash
		}
		hashes = append(hashes, hashEntry{i, hash % (4 * s.n)})
	}

	s.hashes = hashes

	// ---- Supervariable detection: bucket by hash, compare exact lists.
	slices.SortFunc(hashes, func(a, b hashEntry) int { return cmp.Compare(a.hash, b.hash) })
	for lo := 0; lo < len(hashes); {
		hi := lo + 1
		for hi < len(hashes) && hashes[hi].hash == hashes[lo].hash {
			hi++
		}
		if hi-lo > 1 {
			s.mergeEqualAdjacency(hashes[lo:hi])
		}
		lo = hi
	}
}

// mergeEqualAdjacency merges variables in the bucket whose quotient-graph
// adjacency lists are identical sets (they are indistinguishable and will
// have the same elimination behaviour).
func (s *amdState) mergeEqualAdjacency(bucket []hashEntry) {
	for a := 0; a < len(bucket); a++ {
		i := bucket[a].i
		if s.nv[i] <= 0 {
			continue
		}
		for b := a + 1; b < len(bucket); b++ {
			j := bucket[b].i
			if s.nv[j] <= 0 {
				continue
			}
			if s.sameAdjacency(i, j) {
				// Merge j into i.
				s.listRemove(j, s.deg[j])
				s.listRemove(i, s.deg[i])
				s.deg[i] -= s.nv[j] // j no longer an external neighbour
				if s.deg[i] < 0 {
					s.deg[i] = 0
				}
				s.nv[i] += s.nv[j]
				s.nv[j] = 0
				s.dead[j] = true
				s.memberNext[s.memberTail[i]] = j
				s.memberTail[i] = s.memberTail[j]
				s.listInsert(i, s.deg[i])
			}
		}
	}
}

// sameAdjacency reports whether live adjacency sets of variables i and j are
// identical ignoring each other.
func (s *amdState) sameAdjacency(i, j int) bool {
	s.tag++
	tag := s.tag
	ci := 0
	ib := s.pe[i]
	for t := 0; t < s.blen[i]; t++ {
		v := s.iw[ib+t]
		if v == j || (t >= s.elen[i] && s.nv[v] <= 0) || (t < s.elen[i] && s.dead[v]) {
			continue
		}
		if s.inLk[v] != tag {
			s.inLk[v] = tag
			ci++
		}
	}
	jb := s.pe[j]
	cj := 0
	for t := 0; t < s.blen[j]; t++ {
		v := s.iw[jb+t]
		if v == i || (t >= s.elen[j] && s.nv[v] <= 0) || (t < s.elen[j] && s.dead[v]) {
			continue
		}
		if s.inLk[v] != tag {
			return false
		}
		s.inLk[v] = tag - 1 // consume the mark; duplicates would fail
		cj++
	}
	return ci == cj
}
