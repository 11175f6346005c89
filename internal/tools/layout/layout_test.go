package layout

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tools/schematic"
)

func TestAddAndQuery(t *testing.T) {
	l := New("alu")
	if err := l.AddRect("metal1", 10, 0, 0, 5, "n1"); err != nil {
		t.Fatal(err) // normalized
	}
	if err := l.AddRect("poly", 0, 0, 4, 4, ""); err != nil {
		t.Fatal(err)
	}
	if err := l.AddLabel("text", 1, 2, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := l.AddInstance("u1", "sub", "layout", 100, 200); err != nil {
		t.Fatal(err)
	}
	rects := l.Rects()
	if len(rects) != 2 || rects[0].X1 != 0 || rects[0].X2 != 10 {
		t.Fatalf("rects = %+v", rects)
	}
	if rects[0].Width() != 10 || rects[0].Height() != 5 || rects[0].Area() != 50 {
		t.Fatal("geometry accessors")
	}
	if got := l.Layers(); len(got) != 3 || got[0] != "metal1" || got[1] != "poly" || got[2] != "text" {
		t.Fatalf("Layers = %v", got)
	}
	x1, y1, x2, y2, ok := l.BBox()
	if !ok || x1 != 0 || y1 != 0 || x2 != 10 || y2 != 5 {
		t.Fatalf("BBox = %d,%d,%d,%d,%t", x1, y1, x2, y2, ok)
	}
	if l.LayerArea("metal1") != 50 || l.LayerArea("poly") != 16 || l.LayerArea("nope") != 0 {
		t.Fatal("LayerArea")
	}
	if got := l.NetShapes("n1"); len(got) != 1 {
		t.Fatalf("NetShapes = %v", got)
	}
	if got := l.NetShapes("zz"); len(got) != 0 {
		t.Fatal("NetShapes for unknown net")
	}
	r, lb, in := l.Stats()
	if r != 2 || lb != 1 || in != 1 {
		t.Fatalf("Stats = %d,%d,%d", r, lb, in)
	}
}

func TestAddErrors(t *testing.T) {
	l := New("x")
	if err := l.AddRect("", 0, 0, 1, 1, ""); err == nil {
		t.Fatal("empty layer")
	}
	if err := l.AddRect("m", 0, 0, 0, 5, ""); err == nil {
		t.Fatal("zero-area rect")
	}
	if err := l.AddLabel("", 0, 0, "t"); err == nil {
		t.Fatal("empty label layer")
	}
	if err := l.AddLabel("m", 0, 0, ""); err == nil {
		t.Fatal("empty label text")
	}
	if err := l.AddInstance("", "c", "v", 0, 0); err == nil {
		t.Fatal("empty instance")
	}
	if err := l.AddInstance("u", "c", "v", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.AddInstance("u", "c", "v", 0, 0); err == nil {
		t.Fatal("duplicate instance")
	}
	_, _, _, _, ok := New("e").BBox()
	if ok {
		t.Fatal("BBox of empty layout ok")
	}
}

func TestDRC(t *testing.T) {
	l := New("x")
	// A 2-wide rect violates min-width 3.
	if err := l.AddRect("metal1", 0, 0, 2, 10, "a"); err != nil {
		t.Fatal(err)
	}
	// A close neighbour on a different net violates spacing 3.
	if err := l.AddRect("metal1", 4, 0, 10, 10, "b"); err != nil {
		t.Fatal(err)
	}
	// Same-net shapes may abut freely.
	if err := l.AddRect("metal1", 10, 0, 16, 10, "b"); err != nil {
		t.Fatal(err)
	}
	// Different layer never interacts.
	if err := l.AddRect("poly", 3, 0, 9, 10, "c"); err != nil {
		t.Fatal(err)
	}
	vios := l.DRC(3, 3)
	var width, space int
	for _, v := range vios {
		switch v.Rule {
		case "min-width":
			width++
		case "spacing":
			space++
		}
	}
	if width != 1 {
		t.Fatalf("min-width violations = %d: %+v", width, vios)
	}
	if space != 1 {
		t.Fatalf("spacing violations = %d: %+v", space, vios)
	}
	// Clean layout has no violations.
	clean := New("c")
	_ = clean.AddRect("m", 0, 0, 10, 10, "a")
	_ = clean.AddRect("m", 20, 0, 30, 10, "b")
	if got := clean.DRC(3, 3); len(got) != 0 {
		t.Fatalf("clean DRC = %v", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	l := New("alu")
	_ = l.AddRect("metal1", 0, 0, 10, 5, "n1")
	_ = l.AddRect("poly", 0, 0, 4, 4, "")
	_ = l.AddLabel("text", 1, 2, "multi word label")
	_ = l.AddInstance("u1", "sub", "layout", 100, 200)
	data := l.Format()
	l2, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l2.Format(), data) {
		t.Fatalf("round-trip mismatch:\n%s\nvs\n%s", data, l2.Format())
	}
	ins := l2.Instances()
	if len(ins) != 1 || ins[0].X != 100 || ins[0].Y != 200 {
		t.Fatalf("instances = %+v", ins)
	}
	if l2.Labels()[0].Text != "multi word label" {
		t.Fatalf("label = %+v", l2.Labels()[0])
	}
}

// Parse reads lines far longer than its scanner's initial buffer.
func TestParseLongLine(t *testing.T) {
	l := New("alu")
	if err := l.AddLabel("text", 1, 2, strings.Repeat("x", 2<<20)); err != nil {
		t.Fatal(err)
	}
	data := l.Format()
	l2, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l2.Format(), data) {
		t.Fatal("long label did not round-trip")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"rect m 0 0 1 1\n",                 // before header
		"layout\n",                         // short header
		"layout x\nrect m 0 0 1\n",         // short rect
		"layout x\nrect m a 0 1 1\n",       // bad coord
		"layout x\nrect m 0 0 0 1\n",       // zero area
		"layout x\nlabel m 0 0\n",          // short label
		"layout x\nlabel m a 0 t\n",        // bad label coord
		"layout x\ninst u c\n",             // short inst
		"layout x\nat u 0 0\n",             // at before inst
		"layout x\ninst u c v\nat u a 0\n", // bad at coord
		"layout x\nwhatever\n",             // unknown keyword
	}
	for _, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	if _, err := Parse([]byte("# c\nlayout ok\n")); err != nil {
		t.Fatal(err)
	}
}

func TestFromSchematic(t *testing.T) {
	s, err := schematic.GenRippleAdder("add4", 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := FromSchematic(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if l.Cell != "add4" {
		t.Fatalf("cell = %q", l.Cell)
	}
	_, nets, gates, _ := s.Stats()
	rects, labels, _ := l.Stats()
	// 3 rects per gate + 1 metal2 track per net.
	if rects != gates*3+nets {
		t.Fatalf("rects = %d, want %d", rects, gates*3+nets)
	}
	if labels != gates {
		t.Fatalf("labels = %d", labels)
	}
	// Cross-probe works: the first gate's output net has shapes.
	out := s.Gates()[0].Out
	if len(l.NetShapes(out)) == 0 {
		t.Fatalf("no shapes for net %q", out)
	}
	// Round-trips through the file format.
	if _, err := Parse(l.Format()); err != nil {
		t.Fatal(err)
	}
	// Hierarchical instances carried over.
	hs := schematic.New("top")
	if err := hs.AddInstance("u1", "add4", "schematic"); err != nil {
		t.Fatal(err)
	}
	hl, err := FromSchematic(hs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hl.Instances(); len(got) != 1 || got[0].View != "layout" {
		t.Fatalf("instances = %+v", got)
	}
}

func TestGenPadRing(t *testing.T) {
	l, err := GenPadRing("ring", 4)
	if err != nil {
		t.Fatal(err)
	}
	rects, _, _ := l.Stats()
	if rects != 16 {
		t.Fatalf("pads = %d", rects)
	}
	if len(l.NetShapes("pad_s0")) != 1 {
		t.Fatal("pad net missing")
	}
	if _, err := GenPadRing("x", 0); err == nil {
		t.Fatal("0 pads accepted")
	}
}

// Property: layout files round-trip for arbitrary rectangle sets.
func TestPropertyRectRoundTrip(t *testing.T) {
	f := func(coords [][4]int16) bool {
		l := New("p")
		added := 0
		for _, c := range coords {
			if err := l.AddRect("m", int(c[0]), int(c[1]), int(c[2]), int(c[3]), ""); err == nil {
				added++
			}
		}
		l2, err := Parse(l.Format())
		if err != nil {
			return false
		}
		if len(l2.Rects()) != added {
			return false
		}
		return bytes.Equal(l.Format(), l2.Format())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BBox always contains every rectangle.
func TestPropertyBBoxContains(t *testing.T) {
	f := func(coords [][4]int16) bool {
		l := New("p")
		for _, c := range coords {
			_ = l.AddRect("m", int(c[0]), int(c[1]), int(c[2]), int(c[3]), "")
		}
		x1, y1, x2, y2, ok := l.BBox()
		if !ok {
			return len(l.Rects()) == 0
		}
		for _, r := range l.Rects() {
			if r.X1 < x1 || r.Y1 < y1 || r.X2 > x2 || r.Y2 > y2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
