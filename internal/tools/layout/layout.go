// Package layout implements the FMCAD layout editor: a polygon-level mask
// layout tool, the second of the three tools the paper encapsulates
// (section 2.4). A Layout holds rectangles on named layers (optionally
// tagged with the net they implement, which powers cross-probing), text
// labels, and hierarchical instances with placements. The file format uses
// the same "inst" lines the framework scans for dynamic hierarchy binding.
package layout

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Rect is an axis-aligned rectangle on a layer. Coordinates are in
// database units; X1<=X2 and Y1<=Y2 are normalized at insertion.
type Rect struct {
	Layer          string
	X1, Y1, X2, Y2 int
	Net            string // "" when the shape implements no net
}

// Width returns the rectangle's extent in x.
func (r Rect) Width() int { return r.X2 - r.X1 }

// Height returns the rectangle's extent in y.
func (r Rect) Height() int { return r.Y2 - r.Y1 }

// Area returns the rectangle area.
func (r Rect) Area() int64 { return int64(r.Width()) * int64(r.Height()) }

// overlaps reports whether two rectangles share interior area.
func (r Rect) overlaps(o Rect) bool {
	return r.X1 < o.X2 && o.X1 < r.X2 && r.Y1 < o.Y2 && o.Y1 < r.Y2
}

// Label is a text annotation.
type Label struct {
	Layer string
	X, Y  int
	Text  string
}

// Instance is a placed hierarchical reference to another cellview.
type Instance struct {
	Name string
	Cell string
	View string
	X, Y int
}

// Layout is one layout cellview's content.
type Layout struct {
	Cell      string
	rects     []Rect
	labels    []Label
	instances []Instance
	instIdx   map[string]int
}

// New returns an empty layout for the named cell.
func New(cell string) *Layout {
	return &Layout{Cell: cell, instIdx: map[string]int{}}
}

// AddRect places a rectangle; coordinates are normalized. Zero-area
// rectangles are rejected.
func (l *Layout) AddRect(layer string, x1, y1, x2, y2 int, net string) error {
	if layer == "" {
		return fmt.Errorf("layout: empty layer")
	}
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	if x1 == x2 || y1 == y2 {
		return fmt.Errorf("layout: zero-area rect on %s", layer)
	}
	l.rects = append(l.rects, Rect{Layer: layer, X1: x1, Y1: y1, X2: x2, Y2: y2, Net: net})
	return nil
}

// AddLabel places a text label.
func (l *Layout) AddLabel(layer string, x, y int, text string) error {
	if layer == "" || text == "" {
		return fmt.Errorf("layout: label needs layer and text")
	}
	l.labels = append(l.labels, Label{Layer: layer, X: x, Y: y, Text: text})
	return nil
}

// AddInstance places a hierarchical instance at (x, y).
func (l *Layout) AddInstance(name, cell, view string, x, y int) error {
	if name == "" || cell == "" || view == "" {
		return fmt.Errorf("layout: instance needs name, cell and view")
	}
	if _, dup := l.instIdx[name]; dup {
		return fmt.Errorf("layout: duplicate instance %q", name)
	}
	l.instIdx[name] = len(l.instances)
	l.instances = append(l.instances, Instance{Name: name, Cell: cell, View: view, X: x, Y: y})
	return nil
}

// Rects returns all rectangles in insertion order.
func (l *Layout) Rects() []Rect { return append([]Rect(nil), l.rects...) }

// Labels returns all labels in insertion order.
func (l *Layout) Labels() []Label { return append([]Label(nil), l.labels...) }

// Instances returns all instances in insertion order.
func (l *Layout) Instances() []Instance { return append([]Instance(nil), l.instances...) }

// Layers returns the distinct layer names in use, sorted.
func (l *Layout) Layers() []string {
	set := map[string]bool{}
	for _, r := range l.rects {
		set[r.Layer] = true
	}
	for _, lb := range l.labels {
		set[lb.Layer] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BBox returns the bounding box over all rectangles. ok is false for an
// empty layout.
func (l *Layout) BBox() (x1, y1, x2, y2 int, ok bool) {
	if len(l.rects) == 0 {
		return 0, 0, 0, 0, false
	}
	x1, y1 = l.rects[0].X1, l.rects[0].Y1
	x2, y2 = l.rects[0].X2, l.rects[0].Y2
	for _, r := range l.rects[1:] {
		if r.X1 < x1 {
			x1 = r.X1
		}
		if r.Y1 < y1 {
			y1 = r.Y1
		}
		if r.X2 > x2 {
			x2 = r.X2
		}
		if r.Y2 > y2 {
			y2 = r.Y2
		}
	}
	return x1, y1, x2, y2, true
}

// LayerArea returns the summed rectangle area on a layer (overlaps counted
// twice; mask utilization metric, not exact coverage).
func (l *Layout) LayerArea(layer string) int64 {
	var total int64
	for _, r := range l.rects {
		if r.Layer == layer {
			total += r.Area()
		}
	}
	return total
}

// NetShapes returns the rectangles implementing a net — the lookup that
// answers a cross-probe from the schematic editor.
func (l *Layout) NetShapes(net string) []Rect {
	var out []Rect
	for _, r := range l.rects {
		if r.Net == net {
			out = append(out, r)
		}
	}
	return out
}

// Stats summarizes the layout size.
func (l *Layout) Stats() (rects, labels, instances int) {
	return len(l.rects), len(l.labels), len(l.instances)
}

// --- design rule checking ---------------------------------------------------

// Violation is one design-rule violation found by DRC.
type Violation struct {
	Rule   string // "min-width" or "spacing"
	Layer  string
	Detail string
}

// DRC runs two simple geometric design rules over every layer: minimum
// feature width and minimum spacing between shapes on the same layer that
// belong to different nets. (Same-net shapes may abut or overlap freely.)
func (l *Layout) DRC(minWidth, minSpace int) []Violation {
	var out []Violation
	for i, r := range l.rects {
		if r.Width() < minWidth || r.Height() < minWidth {
			out = append(out, Violation{
				Rule:  "min-width",
				Layer: r.Layer,
				Detail: fmt.Sprintf("rect %d (%d,%d)-(%d,%d) is %dx%d, min %d",
					i, r.X1, r.Y1, r.X2, r.Y2, r.Width(), r.Height(), minWidth),
			})
		}
		for j := i + 1; j < len(l.rects); j++ {
			o := l.rects[j]
			if r.Layer != o.Layer {
				continue
			}
			if r.Net != "" && r.Net == o.Net {
				continue
			}
			grown := Rect{X1: r.X1 - minSpace, Y1: r.Y1 - minSpace, X2: r.X2 + minSpace, Y2: r.Y2 + minSpace}
			if grown.overlaps(o) {
				out = append(out, Violation{
					Rule:  "spacing",
					Layer: r.Layer,
					Detail: fmt.Sprintf("rects %d and %d closer than %d on %s",
						i, j, minSpace, r.Layer),
				})
			}
		}
	}
	return out
}

// --- file format -------------------------------------------------------------

// Format renders the layout in the design-file syntax, deterministically.
func (l *Layout) Format() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "layout %s\n", l.Cell)
	for _, r := range l.rects {
		if r.Net != "" {
			fmt.Fprintf(&b, "rect %s %d %d %d %d %s\n", r.Layer, r.X1, r.Y1, r.X2, r.Y2, r.Net)
		} else {
			fmt.Fprintf(&b, "rect %s %d %d %d %d\n", r.Layer, r.X1, r.Y1, r.X2, r.Y2)
		}
	}
	for _, lb := range l.labels {
		fmt.Fprintf(&b, "label %s %d %d %s\n", lb.Layer, lb.X, lb.Y, lb.Text)
	}
	for _, in := range l.instances {
		fmt.Fprintf(&b, "inst %s %s %s\n", in.Name, in.Cell, in.View)
		fmt.Fprintf(&b, "at %s %d %d\n", in.Name, in.X, in.Y)
	}
	return b.Bytes()
}

// Parse reads a layout design file produced by Format.
func Parse(data []byte) (*Layout, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64*1024*1024)
	var l *Layout
	lineNo := 0
	atoi := func(s string) (int, error) { return strconv.Atoi(s) }
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "layout":
			if len(f) != 2 {
				return nil, fmt.Errorf("layout: line %d: bad header", lineNo)
			}
			l = New(f[1])
		case "rect":
			if l == nil || (len(f) != 6 && len(f) != 7) {
				return nil, fmt.Errorf("layout: line %d: bad rect", lineNo)
			}
			var coords [4]int
			for i := 0; i < 4; i++ {
				v, err := atoi(f[2+i])
				if err != nil {
					return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
				}
				coords[i] = v
			}
			net := ""
			if len(f) == 7 {
				net = f[6]
			}
			if err := l.AddRect(f[1], coords[0], coords[1], coords[2], coords[3], net); err != nil {
				return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
			}
		case "label":
			if l == nil || len(f) < 5 {
				return nil, fmt.Errorf("layout: line %d: bad label", lineNo)
			}
			x, err := atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
			}
			y, err := atoi(f[3])
			if err != nil {
				return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
			}
			if err := l.AddLabel(f[1], x, y, strings.Join(f[4:], " ")); err != nil {
				return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
			}
		case "inst":
			if l == nil || len(f) != 4 {
				return nil, fmt.Errorf("layout: line %d: bad inst", lineNo)
			}
			if err := l.AddInstance(f[1], f[2], f[3], 0, 0); err != nil {
				return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
			}
		case "at":
			if l == nil || len(f) != 4 {
				return nil, fmt.Errorf("layout: line %d: bad at", lineNo)
			}
			i, ok := l.instIdx[f[1]]
			if !ok {
				return nil, fmt.Errorf("layout: line %d: at for unknown instance %q", lineNo, f[1])
			}
			x, err := atoi(f[2])
			if err != nil {
				return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
			}
			y, err := atoi(f[3])
			if err != nil {
				return nil, fmt.Errorf("layout: line %d: %w", lineNo, err)
			}
			l.instances[i].X, l.instances[i].Y = x, y
		default:
			return nil, fmt.Errorf("layout: line %d: unknown keyword %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	if l == nil {
		return nil, fmt.Errorf("layout: empty file")
	}
	return l, nil
}
