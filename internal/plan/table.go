package plan

import (
	"math"

	"repro/internal/bitset"
)

// Table is the struct-of-arrays DP table used by every CPU enumerator: an
// open-addressing hash table keyed by relation-set bitmaps with the Murmur3
// 64-bit finalizer, the scheme the paper's §5 GPU memo uses.
//
// Unlike Memo it stores no plan nodes at all: each set's best
// cost, best split (left/right masks), operator and cardinality live in
// flat parallel arrays, so the DP inner loops touch only value types and
// never call the allocator. The arrays are grouped by access pattern: the
// probe loop scans only the key array; a hit loads the set's costing
// payload (rows, cost, memoized log terms, op/leaf meta) from a single
// cache line; and the split masks — needed only when publishing a winner
// and when materializing the final tree — stay in their own cold arrays.
// Plan-tree materialization is deferred to the end of the run (Build),
// which walks the recorded splits once and materializes exactly the
// winning tree from an Arena.
//
// The table never stores the empty set; a zero key marks an empty slot.
// Concurrent reads (Get/View/Has/Cost) are safe while no writer runs; the
// level-parallel drivers publish writes only at their level barriers.
type Table struct {
	keys  []bitset.Mask
	vals  []tval        // per-entry costing payload (one cache line)
	left  []bitset.Mask // left split; zero for base (singleton) entries
	right []bitset.Mask

	used int
	mask uint64
}

// tval is the hot per-entry payload: everything a candidate-pair costing
// touches, packed so one probe hit costs one payload cache line.
type tval struct {
	rows float64
	cost float64
	lg   float64 // log2(max(rows, 2)), the merge-join sort term
	lgi  float64 // log2(rows + 2), the index-nested-loop lookup term
	meta uint16  // relID (bits 0-7) | op (bits 8-11) | leaf flag (bit 12)
}

const (
	metaRelID uint16 = 0x00ff
	metaOp    uint16 = 0x0f00
	metaLeaf  uint16 = 0x1000
)

// Entry is the value-typed view of one table slot, everything a DP inner
// loop needs to cost a candidate join without touching a plan node. The
// logarithm fields are memoized at insert time: each stored sub-plan is
// re-costed against many candidate partners, so computing its log2 terms
// once per insert instead of twice per pair takes math.Log2 off the hot
// path entirely (the values are the same math.Log2 bits either way).
type Entry struct {
	Set     bitset.Mask
	Left    bitset.Mask // zero for base entries
	Right   bitset.Mask
	Rows    float64
	Cost    float64
	LogRows float64 // log2(max(Rows, 2))
	LogIdx  float64 // log2(Rows + 2)
	Op      Op
	Leaf    bool // the underlying base plan is a plain relation scan
	RelID   int32
}

// Winner is a join candidate that won a per-set evaluation: the split plus
// its costing, everything needed to record the set's best plan by value.
type Winner struct {
	Left  bitset.Mask
	Right bitset.Mask
	Rows  float64
	Cost  float64
	Op    Op
	Found bool
}

// TableSizeHint is the capped pre-size for DP tables (and the matching map
// memos) when the connected-set count is discovered on the fly rather than
// known up front: exact below 2^12 — only dense graphs approach 2^n
// connected sets — growth on demand beyond.
func TableSizeHint(n int) int {
	return 1 << uint(min(n, 12))
}

// NewTable returns a table with capacity for at least hint entries before
// growing. Size hint from the run's actual connected-set count when known
// (dp.ConnectedBuckets) so steady-state runs never rehash.
func NewTable(hint int) *Table {
	capacity := 16
	for capacity < hint*2 {
		capacity <<= 1
	}
	return &Table{
		keys:  make([]bitset.Mask, capacity),
		vals:  make([]tval, capacity),
		left:  make([]bitset.Mask, capacity),
		right: make([]bitset.Mask, capacity),
		mask:  uint64(capacity - 1),
	}
}

// Len returns the number of stored sets.
func (t *Table) Len() int { return t.used }

// slot returns the open-addressing slot of s: either the slot holding s or
// the empty slot where s would be inserted.
//
//mpdp:hotpath
func (t *Table) slot(s bitset.Mask) int {
	i := Murmur3Fmix64(uint64(s)) & t.mask
	for {
		k := t.keys[i]
		if k == s || k == 0 {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// Get returns the full entry stored for s by value, split masks included.
//
//mpdp:hotpath
func (t *Table) Get(s bitset.Mask) (Entry, bool) {
	if s == 0 {
		return Entry{}, false
	}
	i := t.slot(s)
	if t.keys[i] == 0 {
		return Entry{}, false
	}
	v := &t.vals[i]
	return Entry{
		Set:     s,
		Left:    t.left[i],
		Right:   t.right[i],
		Rows:    v.rows,
		Cost:    v.cost,
		LogRows: v.lg,
		LogIdx:  v.lgi,
		Op:      Op(v.meta & metaOp >> 8),
		Leaf:    v.meta&metaLeaf != 0,
		RelID:   int32(v.meta & metaRelID),
	}, true
}

// View returns the costing view of s: like Get but without the split
// masks, so a candidate-pair probe touches only the key array and the
// entry's payload line (the split is only needed when materializing).
//
//mpdp:hotpath
func (t *Table) View(s bitset.Mask) (Entry, bool) {
	if s == 0 {
		return Entry{}, false
	}
	i := t.slot(s)
	if t.keys[i] == 0 {
		return Entry{}, false
	}
	v := &t.vals[i]
	return Entry{
		Set:     s,
		Rows:    v.rows,
		Cost:    v.cost,
		LogRows: v.lg,
		LogIdx:  v.lgi,
		Op:      Op(v.meta & metaOp >> 8),
		Leaf:    v.meta&metaLeaf != 0,
		RelID:   int32(v.meta & metaRelID),
	}, true
}

// MustView is View for probes the DP invariant guarantees to hit (every
// smaller connected set is stored before a level is evaluated): a miss is a
// broken enumerator, and failing loudly here beats silently costing against
// a zero entry.
//
//mpdp:hotpath
func (t *Table) MustView(s bitset.Mask) Entry {
	e, ok := t.View(s)
	if !ok {
		panic("plan: DP table is missing a connected set the enumeration invariant guarantees")
	}
	return e
}

// Has reports whether s is stored. For subsets of a connected set below the
// current DP level this doubles as the connectivity test: every connected
// set of a smaller size is already in the table.
//
//mpdp:hotpath
func (t *Table) Has(s bitset.Mask) bool {
	return s != 0 && t.keys[t.slot(s)] != 0
}

// Cost returns the stored cost of s, or found = false.
//
//mpdp:hotpath
func (t *Table) Cost(s bitset.Mask) (float64, bool) {
	if s == 0 {
		return 0, false
	}
	i := t.slot(s)
	if t.keys[i] == 0 {
		return 0, false
	}
	return t.vals[i].cost, true
}

// PutBase seeds the table entry of singleton set s from its prepared base
// plan (a relation scan, or a composite plan the heuristic layer passes as
// a leaf).
//
//mpdp:hotpath
func (t *Table) PutBase(s bitset.Mask, n *Node) {
	m := uint16(n.RelID) & metaRelID
	m |= uint16(n.Op) << 8 & metaOp
	if n.IsLeaf() {
		m |= metaLeaf
	}
	t.put(s, 0, 0, n.Rows, n.Cost, m)
}

// Put unconditionally records w as the plan for set s.
//
//mpdp:hotpath
func (t *Table) Put(s bitset.Mask, w Winner) {
	t.put(s, w.Left, w.Right, w.Rows, w.Cost, uint16(w.Op)<<8&metaOp)
}

// Improve records w for s if it beats the current best; it returns true
// when w was installed. Ties keep the incumbent, like Memo.Improve.
//
//mpdp:hotpath
func (t *Table) Improve(s bitset.Mask, w Winner) bool {
	if s == 0 {
		panic("plan: Table cannot store the empty set")
	}
	i := t.slot(s)
	if t.keys[i] != 0 {
		if t.vals[i].cost <= w.Cost {
			return false
		}
		// Overwrite in place: the key exists, so no growth and no second
		// probe are needed.
		t.setAt(i, w.Left, w.Right, w.Rows, w.Cost, uint16(w.Op)<<8&metaOp)
		return true
	}
	t.Put(s, w)
	return true
}

//mpdp:hotpath
func (t *Table) put(s, left, right bitset.Mask, rows, cost float64, meta uint16) {
	if s == 0 {
		panic("plan: Table cannot store the empty set")
	}
	if 10*(t.used+1) > 7*len(t.keys) {
		t.grow()
	}
	i := t.slot(s)
	if t.keys[i] == 0 {
		t.keys[i] = s
		t.used++
	}
	t.setAt(i, left, right, rows, cost, meta)
}

//mpdp:hotpath
func (t *Table) setAt(i int, left, right bitset.Mask, rows, cost float64, meta uint16) {
	t.left[i] = left
	t.right[i] = right
	t.vals[i] = tval{
		rows: rows,
		cost: cost,
		lg:   math.Log2(math.Max(rows, 2)),
		lgi:  math.Log2(rows + 2),
		meta: meta,
	}
}

func (t *Table) grow() {
	old := *t
	capacity := len(old.keys) * 2
	t.keys = make([]bitset.Mask, capacity)
	t.vals = make([]tval, capacity)
	t.left = make([]bitset.Mask, capacity)
	t.right = make([]bitset.Mask, capacity)
	t.mask = uint64(capacity - 1)
	t.used = 0
	for i, k := range old.keys {
		if k != 0 {
			v := old.vals[i]
			t.put(k, old.left[i], old.right[i], v.rows, v.cost, v.meta)
		}
	}
}

// Range calls f for every interior (joined) set stored in the table, by
// value. Base (singleton) entries are skipped: they carry no split worth
// sharing. Iteration order is the table's slot order; f must not mutate
// the table while ranging.
func (t *Table) Range(f func(s bitset.Mask, w Winner)) {
	for i, k := range t.keys {
		if k == 0 || t.left[i] == 0 {
			continue
		}
		v := &t.vals[i]
		f(k, Winner{
			Left:  t.left[i],
			Right: t.right[i],
			Rows:  v.rows,
			Cost:  v.cost,
			Op:    Op(v.meta & metaOp >> 8),
			Found: true,
		})
	}
}

// Build materializes the plan tree recorded for set s: interior nodes come
// from the arena, base entries resolve to the prepared per-relation plans
// (leaves[i] is the plan of singleton set {i}). It returns nil when s is
// not in the table.
func (t *Table) Build(s bitset.Mask, leaves []*Node, a *Arena) *Node {
	e, ok := t.Get(s)
	if !ok {
		return nil
	}
	if e.Left == 0 {
		return leaves[s.Lowest()]
	}
	l := t.Build(e.Left, leaves, a)
	r := t.Build(e.Right, leaves, a)
	if l == nil || r == nil {
		return nil
	}
	return a.NewNode(s, l, r, e.Op, e.Rows, e.Cost)
}

// Murmur3Fmix64 is the 64-bit finalizer of MurmurHash3.
//
//mpdp:hotpath
func Murmur3Fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
