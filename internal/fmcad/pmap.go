package fmcad

import (
	"cmp"
	"encoding/json"
	"slices"
)

// pmap is a persistent sorted map from string keys to values of type V: a
// path-copying B+tree whose nodes are sorted arrays (Driscoll, Sarnak,
// Sleator and Tarjan, "Making data structures persistent", JCSS 1989).
// set returns a new map that shares every node with p except the ones on
// the path to its key, which it copies; no node is written once the set
// that built it has returned. So a metadata root holding a pmap can be
// published and read without a lock while later roots are built from it.
//
// A pmap is the list of its root's kids, at most pmapMax of them: the
// empty map is an empty list, and a map of up to pmapMax entries is one
// leaf under one kid. So len(p) > 0 tells a non-empty map, and
// encoding/json's omitempty omits an empty one. Keys iterate in byte
// order, the order encoding/json writes map keys in, and MarshalJSON and
// UnmarshalJSON encode a pmap as the Go map of its entries.
type pmap[V any] []pkid[V]

// pmapMax is the most items a node holds. A set copies one node per level,
// so a small node copies little; 8 keeps three levels up to 4,096 keys.
const pmapMax = 8

// pnode is a node below the root: a leaf holds entries, an interior node
// holds kids. Every node holds 1 to pmapMax items.
type pnode[V any] struct {
	ents []pentry[V] // leaf
	kids []pkid[V]   // interior
}

type pentry[V any] struct {
	key string
	val V
}

// pkid is a kid of an interior node or of the root, filed under the
// smallest key of its subtree.
type pkid[V any] struct {
	key  string
	node *pnode[V]
}

func (n *pnode[V]) minKey() string {
	if n.kids != nil {
		return n.kids[0].key
	}
	return n.ents[0].key
}

// get returns the value of key and whether p holds it.
func (p pmap[V]) get(key string) (V, bool) {
	kids := []pkid[V](p)
	for len(kids) > 0 {
		n := kids[kidIndex(kids, key)].node
		if n.kids == nil {
			if i, ok := entIndex(n.ents, key); ok {
				return n.ents[i].val, true
			}
			break
		}
		kids = n.kids
	}
	var zero V
	return zero, false
}

// set returns p with key set to val.
func (p pmap[V]) set(key string, val V) pmap[V] {
	if len(p) == 0 {
		return pmap[V]{{key, &pnode[V]{ents: []pentry[V]{{key, val}}}}}
	}
	kids, right := setKid(p, key, val)
	if right == nil {
		return kids
	}
	return pmap[V]{{kids[0].key, &pnode[V]{kids: kids}}, {right[0].key, &pnode[V]{kids: right}}}
}

// setKid returns a copy of kids with key set to val in the subtree that
// holds it, or would, and the right half of the copy when it overflowed.
func setKid[V any](kids []pkid[V], key string, val V) (_, right []pkid[V]) {
	i := kidIndex(kids, key)
	kid, kidRight := kids[i].node.set(key, val)
	out := slices.Clone(kids)
	out[i] = pkid[V]{min(kids[i].key, key), kid}
	if kidRight == nil {
		return out, nil
	}
	out = slices.Insert(out, i+1, pkid[V]{kidRight.minKey(), kidRight})
	if len(out) <= pmapMax {
		return out, nil
	}
	cut := splitAt(len(out), i+1)
	return slices.Clone(out[:cut]), slices.Clone(out[cut:])
}

// set returns a copy of n with key set to val, and the right half of the
// copy when it overflowed.
func (n *pnode[V]) set(key string, val V) (_, right *pnode[V]) {
	if n.kids != nil {
		kids, rkids := setKid(n.kids, key, val)
		if rkids != nil {
			right = &pnode[V]{kids: rkids}
		}
		return &pnode[V]{kids: kids}, right
	}
	i, found := entIndex(n.ents, key)
	if found {
		ents := slices.Clone(n.ents)
		ents[i].val = val
		return &pnode[V]{ents: ents}, nil
	}
	ents := make([]pentry[V], len(n.ents)+1)
	copy(ents, n.ents[:i])
	ents[i] = pentry[V]{key, val}
	copy(ents[i+1:], n.ents[i:])
	if len(ents) <= pmapMax {
		return &pnode[V]{ents: ents}, nil
	}
	cut := splitAt(len(ents), i)
	return &pnode[V]{ents: slices.Clone(ents[:cut])}, &pnode[V]{ents: slices.Clone(ents[cut:])}
}

// splitAt returns where an overfull node of n items, whose item i is the
// new one, is cut. A new last or first item goes alone, so that keys added
// in ascending or descending order leave full nodes behind; otherwise the
// node is halved.
func splitAt(n, i int) int {
	switch i {
	case n - 1:
		return n - 1
	case 0:
		return 1
	}
	return n / 2
}

// kidIndex returns the kid whose subtree holds key, or would: the last
// one filed under a key at most key, or the first.
func kidIndex[V any](kids []pkid[V], key string) int {
	lo, hi := 1, len(kids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if kids[mid].key <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// entIndex returns the index of key in ents, or where it would go.
func entIndex[V any](ents []pentry[V], key string) (int, bool) {
	lo, hi := 0, len(ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ents[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(ents) && ents[lo].key == key
}

// all calls yield with each entry in key order until yield returns false.
// It has the shape of an iter.Seq2, so that `range p.all` works once the
// module's language version allows it.
func (p pmap[V]) all(yield func(key string, val V) bool) {
	for _, k := range p {
		if !k.node.all(yield) {
			return
		}
	}
}

func (n *pnode[V]) all(yield func(string, V) bool) bool {
	for _, e := range n.ents {
		if !yield(e.key, e.val) {
			return false
		}
	}
	for _, k := range n.kids {
		if !k.node.all(yield) {
			return false
		}
	}
	return true
}

// keys returns the keys of p in order.
func (p pmap[V]) keys() []string {
	var out []string
	p.all(func(k string, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// pmapFrom returns the persistent map of the entries of m, in full nodes:
// the leaves share one array, and the kids of each level another.
func pmapFrom[V any](m map[string]V) pmap[V] {
	ents := make([]pentry[V], 0, len(m))
	for k, v := range m {
		ents = append(ents, pentry[V]{k, v})
	}
	slices.SortFunc(ents, func(a, b pentry[V]) int { return cmp.Compare(a.key, b.key) })
	var level []pkid[V]
	for _, s := range spans(len(ents)) {
		leaf := &pnode[V]{ents: ents[s[0]:s[1]:s[1]]}
		level = append(level, pkid[V]{leaf.minKey(), leaf})
	}
	for len(level) > pmapMax {
		var up []pkid[V]
		for _, s := range spans(len(level)) {
			node := &pnode[V]{kids: level[s[0]:s[1]:s[1]]}
			up = append(up, pkid[V]{node.minKey(), node})
		}
		level = up
	}
	return level
}

// spans cuts n items into the fewest nodes of at most pmapMax items,
// evenly, and returns the [start, end) of each.
func spans(n int) [][2]int {
	k := (n + pmapMax - 1) / pmapMax
	out := make([][2]int, k)
	start := 0
	for i := range out {
		size := n / k
		if i < n%k {
			size++
		}
		out[i] = [2]int{start, start + size}
		start += size
	}
	return out
}

// MarshalJSON encodes p as encoding/json encodes the Go map of its
// entries, so that json.Marshal of a root stays the oracle its hand-written
// encoder is held to.
func (p pmap[V]) MarshalJSON() ([]byte, error) {
	m := map[string]V{}
	p.all(func(k string, v V) bool {
		m[k] = v
		return true
	})
	return json.Marshal(m)
}

// UnmarshalJSON decodes a JSON object, or null for the empty map, into p.
func (p *pmap[V]) UnmarshalJSON(data []byte) error {
	var m map[string]V
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*p = pmapFrom(m)
	return nil
}
