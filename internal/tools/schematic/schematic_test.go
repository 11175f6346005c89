package schematic

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// halfAdder builds a minimal two-gate schematic.
func halfAdder(t *testing.T) *Schematic {
	t.Helper()
	s := New("ha")
	for _, p := range []struct {
		name string
		dir  PortDir
	}{{"a", In}, {"b", In}, {"sum", Out}, {"carry", Out}} {
		if err := s.AddPort(p.name, p.dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddGate("x1", Xor2, "sum", "a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddGate("a1", And2, "carry", "a", "b"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildBasics(t *testing.T) {
	s := halfAdder(t)
	ports, nets, gates, insts := s.Stats()
	if ports != 4 || nets != 4 || gates != 2 || insts != 0 {
		t.Fatalf("Stats = %d,%d,%d,%d", ports, nets, gates, insts)
	}
	if !s.HasNet("sum") || s.HasNet("zz") {
		t.Fatal("HasNet")
	}
	if got := s.Ports(); len(got) != 4 || got[0].Name != "a" || got[0].Dir != In {
		t.Fatalf("Ports = %v", got)
	}
	if got := s.Gates(); len(got) != 2 || got[0].Type != Xor2 {
		t.Fatalf("Gates = %v", got)
	}
	if probs := s.Validate(); len(probs) != 0 {
		t.Fatalf("Validate = %v", probs)
	}
}

func TestBuildErrors(t *testing.T) {
	s := halfAdder(t)
	if err := s.AddPort("a", In); err == nil {
		t.Fatal("duplicate port")
	}
	if err := s.AddPort("", In); err == nil {
		t.Fatal("empty port")
	}
	if err := s.AddNet(""); err == nil {
		t.Fatal("empty net")
	}
	if err := s.AddGate("x1", Inv, "sum", "a"); err == nil {
		t.Fatal("duplicate gate")
	}
	if err := s.AddGate("", Inv, "sum", "a"); err == nil {
		t.Fatal("empty gate name")
	}
	if err := s.AddGate("g9", GateType("bogus"), "sum", "a"); err == nil {
		t.Fatal("unknown gate type")
	}
	if err := s.AddGate("g9", And2, "sum", "a"); err == nil {
		t.Fatal("wrong input count")
	}
	if err := s.AddGate("g9", Inv, "nope", "a"); err == nil {
		t.Fatal("undeclared output")
	}
	if err := s.AddGate("g9", Inv, "sum", "nope"); err == nil {
		t.Fatal("undeclared input")
	}
	if err := s.AddInstance("u1", "alu", "schematic"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddInstance("u1", "alu", "schematic"); err == nil {
		t.Fatal("duplicate instance")
	}
	if err := s.AddInstance("", "alu", "schematic"); err == nil {
		t.Fatal("empty instance")
	}
	if err := s.Connect("zz", "p", "a"); err == nil {
		t.Fatal("connect on unknown instance")
	}
	if err := s.Connect("u1", "p", "zz"); err == nil {
		t.Fatal("connect to undeclared net")
	}
	if err := s.Connect("u1", "p", "a"); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFindsMultipleDrivers(t *testing.T) {
	s := New("bad")
	_ = s.AddPort("a", In)
	_ = s.AddPort("y", Out)
	_ = s.AddGate("g1", Inv, "y", "a")
	_ = s.AddGate("g2", Buf, "y", "a") // second driver on y
	probs := s.Validate()
	if len(probs) != 1 || !strings.Contains(probs[0], "2 drivers") {
		t.Fatalf("Validate = %v", probs)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s := halfAdder(t)
	if err := s.AddInstance("u1", "sub", "schematic"); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect("u1", "x", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect("u1", "y", "b"); err != nil {
		t.Fatal(err)
	}
	data := s.Format()
	s2, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s2.Format(), data) {
		t.Fatalf("round-trip mismatch:\n%s\nvs\n%s", data, s2.Format())
	}
	if s2.Cell != "ha" {
		t.Fatalf("cell = %q", s2.Cell)
	}
	insts := s2.Instances()
	if len(insts) != 1 || insts[0].Conns["x"] != "a" || insts[0].Conns["y"] != "b" {
		t.Fatalf("instances = %+v", insts)
	}
}

// Parse reads lines far longer than its scanner's initial buffer.
func TestParseLongLine(t *testing.T) {
	data := halfAdder(t).Format()
	long := append([]byte("# "+strings.Repeat("x", 2<<20)+"\n"), data...)
	s, err := Parse(long)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Format(), data) {
		t.Fatalf("parsed %s", s.Format())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"bogus line\n",
		"port a in\n",                     // before header
		"schematic x\nport a\n",           // short port
		"schematic x\nport a sideways\n",  // bad dir
		"schematic x\nnet\n",              // short net
		"schematic x\ngate g inv\n",       // short gate
		"schematic x\ninst u1 c\n",        // short inst
		"schematic x\nconn u1 p n\n",      // conn on unknown inst
		"schematic\n",                     // short header
		"schematic x\ngate g bogus y a\n", // unknown type
	}
	for _, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
	// Comments and blank lines are fine.
	s, err := Parse([]byte("# comment\nschematic ok\n\nnet n1\n"))
	if err != nil || s.Cell != "ok" {
		t.Fatalf("comment parse: %v", err)
	}
}

func TestPortDirString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Fatal("dir strings")
	}
	if PortDir(9).String() == "" {
		t.Fatal("unknown dir")
	}
	if _, err := parseDir("x"); err == nil {
		t.Fatal("bad dir parsed")
	}
}

func TestGenRippleAdder(t *testing.T) {
	s, err := GenRippleAdder("add8", 8)
	if err != nil {
		t.Fatal(err)
	}
	ports, _, gates, _ := s.Stats()
	// 8 bits: 3 ports per bit + cin + cout = 26 ports; 5 gates per bit.
	if ports != 26 {
		t.Fatalf("ports = %d", ports)
	}
	if gates != 40 {
		t.Fatalf("gates = %d", gates)
	}
	if probs := s.Validate(); len(probs) != 0 {
		t.Fatalf("Validate = %v", probs)
	}
	// Round-trips through the file format.
	if _, err := Parse(s.Format()); err != nil {
		t.Fatal(err)
	}
	if _, err := GenRippleAdder("x", 0); err == nil {
		t.Fatal("0-bit adder accepted")
	}
}

func TestGenRandomLogic(t *testing.T) {
	s, err := GenRandomLogic("rnd", 8, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	_, _, gates, _ := s.Stats()
	if gates != 101 { // 100 + output buffer
		t.Fatalf("gates = %d", gates)
	}
	if probs := s.Validate(); len(probs) != 0 {
		t.Fatalf("Validate = %v", probs)
	}
	// Deterministic in seed.
	s2, _ := GenRandomLogic("rnd", 8, 100, 42)
	if !bytes.Equal(s.Format(), s2.Format()) {
		t.Fatal("not deterministic")
	}
	s3, _ := GenRandomLogic("rnd", 8, 100, 43)
	if bytes.Equal(s.Format(), s3.Format()) {
		t.Fatal("seed ignored")
	}
	if _, err := GenRandomLogic("x", 0, 1, 1); err == nil {
		t.Fatal("no inputs accepted")
	}
	if _, err := GenRandomLogic("x", 1, 0, 1); err == nil {
		t.Fatal("no gates accepted")
	}
}

func TestGenHierarchy(t *testing.T) {
	cells, err := GenHierarchy("top", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 3, fanout 2: 1 + 2 + 4 = 7 cells.
	if len(cells) != 7 {
		t.Fatalf("cells = %d", len(cells))
	}
	top := cells["top"]
	if top == nil {
		t.Fatal("no top")
	}
	if len(top.Instances()) != 2 {
		t.Fatalf("top instances = %d", len(top.Instances()))
	}
	// Leaves contain the DFF.
	leaf := cells["top_c0_c0"]
	if leaf == nil {
		t.Fatal("no leaf")
	}
	if len(leaf.Gates()) != 2 {
		t.Fatalf("leaf gates = %d", len(leaf.Gates()))
	}
	// Every generated cell parses back.
	for name, c := range cells {
		if _, err := Parse(c.Format()); err != nil {
			t.Errorf("cell %s: %v", name, err)
		}
	}
	if _, err := GenHierarchy("x", 0, 1); err == nil {
		t.Fatal("bad depth accepted")
	}
}

// Property: Format/Parse round-trip is the identity on generated adders.
func TestPropertyAdderRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		bits := int(n%16) + 1
		s, err := GenRippleAdder("a", bits)
		if err != nil {
			return false
		}
		s2, err := Parse(s.Format())
		if err != nil {
			return false
		}
		return bytes.Equal(s.Format(), s2.Format())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}

// Property: random logic of any seed validates cleanly (single driver per
// net, acyclic wiring by construction).
func TestPropertyRandomLogicValid(t *testing.T) {
	f := func(seed uint64, g uint8) bool {
		gates := int(g%64) + 1
		s, err := GenRandomLogic("r", 4, gates, seed)
		if err != nil {
			return false
		}
		return len(s.Validate()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
