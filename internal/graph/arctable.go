package graph

import "hash/maphash"

// arcTable is the slot index of a Dynamic: it maps the directed arc u→w,
// packed as u<<32|w, to the position of w in u's adjacency list. A MarkSet
// keeps a second one from the mark u→w to w's position in u's mark list.
// It is one open-addressing table over every arc of the graph, with
// linear probing and backward-shift deletion, so it never holds
// tombstones, and it doubles at load ½. Keys and slots are plain integers,
// so the garbage collector never scans it. Key 0 is the self-loop 0→0,
// which neither stores, so it marks an empty cell and a freshly allocated
// table is empty as is.
//
// The home cell of a key is a full 64-bit finalizer of the key XORed with
// a salt drawn once per table from hash/maphash, the same per-process
// random source that seeds Go maps. Whoever chooses the updates therefore
// cannot predict which arcs collide, so the table resists hash flooding as
// the per-vertex maps it replaced did. The salt only moves cells around: no
// result ever reads the table's layout, and the slot an arc occupies in
// adj is decided by the insertion and deletion order alone.
type arcTable struct {
	keys  []uint64 // packed arc u<<32|w, or 0 for an empty cell
	slots []int32  // slots[i] = position of w in adj[u] when keys[i] = u<<32|w
	mask  uint64   // len(keys)-1; len(keys) is a power of two
	count int      // occupied cells
	salt  uint64
}

// minArcCells is the capacity of an empty table.
const minArcCells = 16

// arcKey packs the directed arc u→w.
func arcKey(u, w int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(w)) }

// newArcTable returns an empty table sized to hold arcs entries at load at
// most ½ without growing.
func newArcTable(arcs int) arcTable {
	cells := minArcCells
	for cells < 2*arcs {
		cells *= 2
	}
	return arcTable{
		keys:  make([]uint64, cells),
		slots: make([]int32, cells),
		mask:  uint64(cells - 1),
		salt:  maphash.Bytes(maphash.MakeSeed(), nil),
	}
}

// home returns k's home cell: murmur3's fmix64 of the salted key.
func (t *arcTable) home(k uint64) uint64 {
	k ^= t.salt
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k & t.mask
}

// lookup returns the cell holding k and true, or the empty cell where k
// would be placed and false. The empty test comes first, so the self-loop
// key 0 is never found.
func (t *arcTable) lookup(k uint64) (uint64, bool) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case 0:
			return i, false
		case k:
			return i, true
		}
	}
}

// insert adds the absent key k with the given slot.
func (t *arcTable) insert(k uint64, slot int32) {
	if 2*(t.count+1) > len(t.keys) {
		t.grow()
	}
	i, _ := t.lookup(k)
	t.keys[i], t.slots[i] = k, slot
	t.count++
}

// grow doubles the table and re-places every key.
func (t *arcTable) grow() {
	keys, slots := t.keys, t.slots
	cells := 2 * len(keys)
	t.keys, t.slots, t.mask = make([]uint64, cells), make([]int32, cells), uint64(cells-1)
	for i, k := range keys {
		if k != 0 {
			j, _ := t.lookup(k)
			t.keys[j], t.slots[j] = k, slots[i]
		}
	}
}

// swapRemove removes the entry held in the given cell from list, the list
// of u whose entries the table indexes: the last entry moves into the freed
// slot and is re-indexed there. It returns the shortened list.
func (t *arcTable) swapRemove(list []int32, u int32, cell uint64) []int32 {
	i := t.slots[cell]
	last := len(list) - 1
	if moved := list[last]; int(i) != last {
		list[i] = moved
		c, _ := t.lookup(arcKey(u, moved))
		t.slots[c] = i
	}
	t.removeAt(cell)
	return list[:last]
}

// removeAt empties cell i and shifts the rest of its probe run back, so
// every remaining key stays reachable from its home cell.
func (t *arcTable) removeAt(i uint64) {
	for j := i; ; {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		// k may fill the hole at i only if i lies cyclically in [home, j).
		if (j-t.home(k))&t.mask >= (j-i)&t.mask {
			t.keys[i], t.slots[i] = k, t.slots[j]
			i = j
		}
	}
	t.keys[i] = 0
	t.count--
}
