package fmcad

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
)

// Design hierarchy in FMCAD lives *inside* the design files: a cellview
// that instantiates other cells records them as "inst" lines in its data
// file. The framework binds the hierarchy dynamically, always against the
// default version of the instantiated cellview, and stores no
// what-belongs-to-what relationships (section 2.2). Because the hierarchy
// is per-view, a cell's schematic hierarchy may legally differ from its
// layout hierarchy — the non-isomorphic hierarchies JCF 3.0 cannot accept.

// InstanceRef is one child reference found in a design file.
type InstanceRef struct {
	Name string // instance name, e.g. "u1"
	Cell string // instantiated cell
	View string // instantiated view
}

// InstLine renders an instance reference in the design-file syntax the
// tools emit and ParseInstances reads back.
func InstLine(name, cell, view string) string {
	return fmt.Sprintf("inst %s %s %s", name, cell, view)
}

// ParseInstances scans a design file for instance lines. The format is
// line-oriented: any line of the form "inst <name> <cell> <view>" is a
// child reference; all other lines are tool-specific payload.
func ParseInstances(data []byte) []InstanceRef {
	var out []InstanceRef
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16*1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "inst" {
			out = append(out, InstanceRef{Name: fields[1], Cell: fields[2], View: fields[3]})
		}
	}
	return out
}

// HierarchyNode is one node of an expanded design hierarchy.
type HierarchyNode struct {
	Cell     string
	View     string
	Version  int // the dynamically bound (default) version
	Children []*HierarchyNode
	InstName string // instance name within the parent ("" at the root)
}

// Count returns the number of nodes in the subtree including the root.
func (n *HierarchyNode) Count() int {
	total := 1
	for _, c := range n.Children {
		total += c.Count()
	}
	return total
}

// Leaves returns the number of leaf nodes.
func (n *HierarchyNode) Leaves() int {
	if len(n.Children) == 0 {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += c.Leaves()
	}
	return total
}

// Depth returns the maximum depth (a lone root has depth 1).
func (n *HierarchyNode) Depth() int {
	best := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > best {
			best = d
		}
	}
	return best + 1
}

// CellSet returns the distinct cell names in the subtree.
func (n *HierarchyNode) CellSet() map[string]bool {
	set := map[string]bool{}
	var walk func(*HierarchyNode)
	walk = func(h *HierarchyNode) {
		set[h.Cell] = true
		for _, c := range h.Children {
			walk(c)
		}
	}
	walk(n)
	return set
}

// Expand performs dynamic hierarchy binding starting at (cell, view): it
// reads the *default* version of each cellview encountered, parses its
// instance lines and recurses. Cycles are an error (a cell may not contain
// itself). Missing children are an error — dangling references are exactly
// the consistency hazard the paper attributes to FMCAD.
func (l *Library) Expand(cell, view string) (*HierarchyNode, error) {
	return l.expand(cell, view, "", map[string]bool{})
}

func (l *Library) expand(cell, view, instName string, path map[string]bool) (*HierarchyNode, error) {
	key := cvKey(cell, view)
	if path[key] {
		return nil, fmt.Errorf("fmcad: hierarchy cycle through %s", key)
	}
	path[key] = true
	defer delete(path, key)

	def, err := l.DefaultVersion(cell, view)
	if err != nil {
		return nil, err
	}
	data, err := l.ReadVersion(cell, view, def)
	if err != nil {
		return nil, err
	}
	node := &HierarchyNode{Cell: cell, View: view, Version: def, InstName: instName}
	for _, ref := range ParseInstances(data) {
		child, err := l.expand(ref.Cell, ref.View, ref.Name, path)
		if err != nil {
			return nil, fmt.Errorf("fmcad: expanding %s instance %s: %w", key, ref.Name, err)
		}
		node.Children = append(node.Children, child)
	}
	return node, nil
}

// Isomorphic reports whether the hierarchies of (cell, viewA) and
// (cell, viewB) have the same shape: the same cells instantiated under the
// same instance names, recursively. JCF 3.0 requires this; FMCAD does not
// (section 2.3: "the hierarchy of the viewtype schematic can differ from
// the hierarchy of the viewtype layout").
func (l *Library) Isomorphic(cell, viewA, viewB string) (bool, error) {
	a, err := l.Expand(cell, viewA)
	if err != nil {
		return false, err
	}
	b, err := l.Expand(cell, viewB)
	if err != nil {
		return false, err
	}
	return sameShape(a, b), nil
}

func sameShape(a, b *HierarchyNode) bool {
	if a.Cell != b.Cell || len(a.Children) != len(b.Children) {
		return false
	}
	// Compare children by instance name, order-independent.
	byName := map[string]*HierarchyNode{}
	for _, c := range a.Children {
		byName[c.InstName] = c
	}
	for _, c := range b.Children {
		mate, ok := byName[c.InstName]
		if !ok || !sameShape(mate, c) {
			return false
		}
	}
	return true
}
