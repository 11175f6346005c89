package fmcad

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// cellOf returns the record of a cell of m, or nil.
func cellOf(m *meta, cell string) *cellMeta {
	c, _ := m.Cells.get(cell)
	return c
}

// checkTree fails unless p is a well-formed tree: the root and every
// node hold 1 to pmapMax items in ascending key order, each kid is filed
// under its smallest key, and all leaves are at one depth. It returns the
// number of entries.
func checkTree[V any](t testing.TB, p pmap[V]) int {
	t.Helper()
	leafDepth, entries := -1, 0
	var walk func(kids []pkid[V], depth int)
	walk = func(kids []pkid[V], depth int) {
		if len(kids) == 0 || len(kids) > pmapMax {
			t.Fatalf("node of %d kids", len(kids))
		}
		for i, k := range kids {
			if i > 0 && kids[i-1].key >= k.key {
				t.Fatalf("kids not ascending: %q then %q", kids[i-1].key, k.key)
			}
			if k.key != k.node.minKey() {
				t.Fatalf("kid filed under %q holds %q first", k.key, k.node.minKey())
			}
			if k.node.kids != nil {
				if k.node.ents != nil {
					t.Fatalf("interior node holds entries %v", k.node.ents)
				}
				walk(k.node.kids, depth+1)
				continue
			}
			ents := k.node.ents
			if len(ents) == 0 || len(ents) > pmapMax {
				t.Fatalf("leaf of %d entries", len(ents))
			}
			for j := 1; j < len(ents); j++ {
				if ents[j-1].key >= ents[j].key {
					t.Fatalf("leaf not ascending: %q then %q", ents[j-1].key, ents[j].key)
				}
			}
			entries += len(ents)
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
		}
	}
	if len(p) > 0 {
		walk(p, 1)
	}
	return entries
}

// levels returns the number of node levels under the root of p.
func levels[V any](p pmap[V]) int {
	n := 0
	for kids := []pkid[V](p); len(kids) > 0; kids = kids[0].node.kids {
		n++
	}
	return n
}

// digestOf returns a digest of the entries all yields, in its order.
func digestOf(all func(yield func(string, int) bool)) uint64 {
	var h uint64
	all(func(k string, v int) bool {
		h = (h^maphash.String(digestSeed, k))*1099511628211 + uint64(v)
		return true
	})
	return h
}

var digestSeed = maphash.MakeSeed()

// The persistent map against a Go map. A seeded sequence of inserts and
// replaces, with keys that arrive ascending, descending, as version keys
// and at random, runs to about 3,000 keys, so nodes split at every
// position and several levels deep. Every root is held: after each set
// the new root must iterate in key order to exactly the model's entries,
// answer get like the model and be well formed (checked at every one of
// the first 256 sets, then at every 64th), and at the end every earlier
// root must still iterate to what it held when it was made. A reader
// goroutine walks the held roots meanwhile, so under the race detector
// any write to a node a published root holds is a reported race. The same
// runs from a map built whole (pmapFrom, whose leaves share one array),
// and the JSON encoding must be the Go map's.
func TestPmapModel(t *testing.T) {
	for _, start := range []int{0, 500} {
		t.Run(fmt.Sprintf("from=%d", start), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(33 + start)))
			model := map[string]int{}
			for i := 0; i < start; i++ {
				model["r"+strconv.Itoa(rng.Intn(1<<20))] = i
			}
			// keys and vals are the model in key order.
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			vals := make([]int, len(keys))
			for i, k := range keys {
				vals[i] = model[k]
			}
			want := func() uint64 {
				return digestOf(func(yield func(string, int) bool) {
					for i, k := range keys {
						if !yield(k, vals[i]) {
							return
						}
					}
				})
			}

			type root struct {
				p      pmap[int]
				digest uint64
			}
			p := pmapFrom(model)
			if n := checkTree(t, p); n != len(model) {
				t.Fatalf("pmapFrom holds %d of %d entries", n, len(model))
			}
			var mu sync.Mutex
			roots := []root{{p, want()}}
			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					r := roots[i%len(roots)]
					mu.Unlock()
					if digestOf(r.p.all) != r.digest {
						t.Errorf("a held root changed while later roots were built")
						return
					}
				}
			}()

			asc, desc, version := 0, 1<<20, 0
			for i := 0; len(model) < 3000+start; i++ {
				var key string
				switch r := rng.Intn(10); {
				case r < 3:
					asc++
					key = fmt.Sprintf("a%07d", asc)
				case r < 4:
					desc--
					key = fmt.Sprintf("a%07d", desc)
				case r < 6:
					version++
					key = versionKey(version)
				case r < 8 || len(keys) == 0:
					key = "r" + strconv.Itoa(rng.Intn(1<<20))
				default: // replace
					key = keys[rng.Intn(len(keys))]
				}
				j, found := slices.BinarySearch(keys, key)
				if found {
					vals[j] = i
				} else {
					keys, vals = slices.Insert(keys, j, key), slices.Insert(vals, j, i)
				}
				model[key] = i
				p = p.set(key, i)
				if v, ok := p.get(key); !ok || v != i {
					t.Fatalf("set %d: get(%q) = %d, %t", i, key, v, ok)
				}
				if _, ok := p.get(key + "\x00"); ok {
					t.Fatalf("set %d: get of an absent key found it", i)
				}
				d := want()
				if digestOf(p.all) != d {
					t.Fatalf("set %d (%q): entries differ from the model's", i, key)
				}
				if i < 256 || i%64 == 0 {
					if n := checkTree(t, p); n != len(model) {
						t.Fatalf("set %d: tree holds %d entries, the model %d", i, n, len(model))
					}
				}
				mu.Lock()
				roots = append(roots, root{p, d})
				mu.Unlock()
			}
			close(stop)
			reader.Wait()
			if n := checkTree(t, p); n != len(model) || levels(p) < 3 {
				t.Fatalf("%d keys fill only %d levels under the root", n, levels(p))
			}
			for k, v := range model {
				if got, ok := p.get(k); !ok || got != v {
					t.Fatalf("get(%q) = %d, %t; want %d", k, got, ok, v)
				}
			}
			for i, r := range roots {
				if digestOf(r.p.all) != r.digest {
					t.Fatalf("root %d of %d changed after later sets", i, len(roots))
				}
			}

			got, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := json.Marshal(model); !bytes.Equal(got, want) {
				t.Fatalf("MarshalJSON differs from the Go map's encoding")
			}
			var back pmap[int]
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			checkTree(t, back)
			if digestOf(back.all) != digestOf(p.all) {
				t.Fatalf("UnmarshalJSON lost entries")
			}
		})
	}
}
