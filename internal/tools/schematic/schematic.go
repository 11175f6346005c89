// Package schematic implements the FMCAD schematic entry tool: a netlist
// editor for gate-level designs with hierarchy. It is one of the three
// tools the paper encapsulates into the hybrid framework (section 2.4).
//
// A Schematic holds ports, nets, primitive gates and hierarchical
// instances of other cellviews. The text file format is line-oriented and
// deliberately uses the same "inst" lines the FMCAD framework scans for
// dynamic hierarchy binding, so design hierarchy lives inside the design
// data exactly as section 2.2 describes.
package schematic

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// PortDir is a port direction.
type PortDir int

// Port directions.
const (
	In PortDir = iota
	Out
	InOut
)

// String returns the file-format keyword of the direction.
func (d PortDir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("PortDir(%d)", int(d))
}

func parseDir(s string) (PortDir, error) {
	switch s {
	case "in":
		return In, nil
	case "out":
		return Out, nil
	case "inout":
		return InOut, nil
	}
	return In, fmt.Errorf("schematic: bad port direction %q", s)
}

// GateType enumerates the primitive gate library shared with the
// simulator.
type GateType string

// The primitive gate library.
const (
	Inv   GateType = "inv"
	Buf   GateType = "buf"
	And2  GateType = "and2"
	Or2   GateType = "or2"
	Nand2 GateType = "nand2"
	Nor2  GateType = "nor2"
	Xor2  GateType = "xor2"
	Xnor2 GateType = "xnor2"
	Dff   GateType = "dff" // inputs: d, clk; output: q
)

// GateInputs returns the number of inputs a gate type takes.
func GateInputs(t GateType) (int, error) {
	switch t {
	case Inv, Buf:
		return 1, nil
	case And2, Or2, Nand2, Nor2, Xor2, Xnor2, Dff:
		return 2, nil
	}
	return 0, fmt.Errorf("schematic: unknown gate type %q", t)
}

// Port is a named, directed connection point of the schematic.
type Port struct {
	Name string
	Dir  PortDir
}

// Gate is one primitive logic gate instance. Out is the output net;
// Ins are the input nets (for Dff: Ins[0]=d, Ins[1]=clk).
type Gate struct {
	Name string
	Type GateType
	Out  string
	Ins  []string
}

// Instance is a hierarchical reference to another cellview. Conns maps the
// child's port names to nets of this schematic.
type Instance struct {
	Name  string
	Cell  string
	View  string
	Conns map[string]string
}

// Schematic is one schematic cellview's content.
type Schematic struct {
	Cell      string
	ports     []Port
	nets      map[string]bool
	netOrder  []string
	gates     []Gate
	gateIdx   map[string]int
	instances []Instance
	instIdx   map[string]int
}

// New returns an empty schematic for the named cell.
func New(cell string) *Schematic {
	return &Schematic{
		Cell:    cell,
		nets:    map[string]bool{},
		gateIdx: map[string]int{},
		instIdx: map[string]int{},
	}
}

// AddPort declares a port and its implicit net of the same name.
func (s *Schematic) AddPort(name string, dir PortDir) error {
	if name == "" {
		return fmt.Errorf("schematic: empty port name")
	}
	for _, p := range s.ports {
		if p.Name == name {
			return fmt.Errorf("schematic: duplicate port %q", name)
		}
	}
	s.ports = append(s.ports, Port{Name: name, Dir: dir})
	return s.AddNet(name)
}

// AddNet declares a net. Re-declaring is a no-op.
func (s *Schematic) AddNet(name string) error {
	if name == "" {
		return fmt.Errorf("schematic: empty net name")
	}
	if !s.nets[name] {
		s.nets[name] = true
		s.netOrder = append(s.netOrder, name)
	}
	return nil
}

// AddGate places a primitive gate. All referenced nets must exist.
func (s *Schematic) AddGate(name string, t GateType, out string, ins ...string) error {
	if name == "" {
		return fmt.Errorf("schematic: empty gate name")
	}
	if _, dup := s.gateIdx[name]; dup {
		return fmt.Errorf("schematic: duplicate gate %q", name)
	}
	want, err := GateInputs(t)
	if err != nil {
		return err
	}
	if len(ins) != want {
		return fmt.Errorf("schematic: gate %q (%s) wants %d inputs, got %d", name, t, want, len(ins))
	}
	if !s.nets[out] {
		return fmt.Errorf("schematic: gate %q output net %q undeclared", name, out)
	}
	for _, in := range ins {
		if !s.nets[in] {
			return fmt.Errorf("schematic: gate %q input net %q undeclared", name, in)
		}
	}
	s.gateIdx[name] = len(s.gates)
	s.gates = append(s.gates, Gate{Name: name, Type: t, Out: out, Ins: append([]string(nil), ins...)})
	return nil
}

// AddInstance places a hierarchical instance of another cellview.
func (s *Schematic) AddInstance(name, cell, view string) error {
	if name == "" || cell == "" || view == "" {
		return fmt.Errorf("schematic: instance needs name, cell and view")
	}
	if _, dup := s.instIdx[name]; dup {
		return fmt.Errorf("schematic: duplicate instance %q", name)
	}
	s.instIdx[name] = len(s.instances)
	s.instances = append(s.instances, Instance{Name: name, Cell: cell, View: view, Conns: map[string]string{}})
	return nil
}

// Connect wires a child instance port to a net of this schematic.
func (s *Schematic) Connect(inst, port, net string) error {
	i, ok := s.instIdx[inst]
	if !ok {
		return fmt.Errorf("schematic: unknown instance %q", inst)
	}
	if !s.nets[net] {
		return fmt.Errorf("schematic: undeclared net %q", net)
	}
	s.instances[i].Conns[port] = net
	return nil
}

// Ports returns the ports in declaration order.
func (s *Schematic) Ports() []Port { return append([]Port(nil), s.ports...) }

// Nets returns the nets in declaration order.
func (s *Schematic) Nets() []string { return append([]string(nil), s.netOrder...) }

// HasNet reports whether a net is declared.
func (s *Schematic) HasNet(name string) bool { return s.nets[name] }

// Gates returns the gates in placement order.
func (s *Schematic) Gates() []Gate {
	out := make([]Gate, len(s.gates))
	for i, g := range s.gates {
		out[i] = Gate{Name: g.Name, Type: g.Type, Out: g.Out, Ins: append([]string(nil), g.Ins...)}
	}
	return out
}

// Instances returns the hierarchical instances in placement order.
func (s *Schematic) Instances() []Instance {
	out := make([]Instance, len(s.instances))
	for i, in := range s.instances {
		conns := make(map[string]string, len(in.Conns))
		for k, v := range in.Conns {
			conns[k] = v
		}
		out[i] = Instance{Name: in.Name, Cell: in.Cell, View: in.View, Conns: conns}
	}
	return out
}

// Stats summarizes the design size.
func (s *Schematic) Stats() (ports, nets, gates, instances int) {
	return len(s.ports), len(s.netOrder), len(s.gates), len(s.instances)
}

// Validate checks structural consistency: every output net driven at most
// once (by a gate or an input port), every gate net declared, every
// instance connection on a declared net.
func (s *Schematic) Validate() []string {
	var problems []string
	drivers := map[string][]string{}
	for _, p := range s.ports {
		if p.Dir == In || p.Dir == InOut {
			drivers[p.Name] = append(drivers[p.Name], "port "+p.Name)
		}
	}
	for _, g := range s.gates {
		drivers[g.Out] = append(drivers[g.Out], "gate "+g.Name)
	}
	for net, ds := range drivers {
		if len(ds) > 1 {
			problems = append(problems, fmt.Sprintf("net %q has %d drivers: %s", net, len(ds), strings.Join(ds, ", ")))
		}
	}
	for _, in := range s.instances {
		for port, net := range in.Conns {
			if !s.nets[net] {
				problems = append(problems, fmt.Sprintf("instance %q port %q on undeclared net %q", in.Name, port, net))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// CopyFrom replaces s's entire content with a deep copy of o. Editors use
// it to load a generated or externally prepared design into the working
// copy handed to them by the encapsulation.
func (s *Schematic) CopyFrom(o *Schematic) error {
	fresh := New(o.Cell)
	for _, p := range o.ports {
		if err := fresh.AddPort(p.Name, p.Dir); err != nil {
			return err
		}
	}
	for _, n := range o.netOrder {
		if err := fresh.AddNet(n); err != nil {
			return err
		}
	}
	for _, g := range o.gates {
		if err := fresh.AddGate(g.Name, g.Type, g.Out, g.Ins...); err != nil {
			return err
		}
	}
	for _, in := range o.instances {
		if err := fresh.AddInstance(in.Name, in.Cell, in.View); err != nil {
			return err
		}
		for port, net := range in.Conns {
			if err := fresh.Connect(in.Name, port, net); err != nil {
				return err
			}
		}
	}
	*s = *fresh
	return nil
}

// --- file format -----------------------------------------------------------

// Format renders the schematic in the design-file syntax. The layout is
// deterministic so versions diff cleanly.
func (s *Schematic) Format() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "schematic %s\n", s.Cell)
	for _, p := range s.ports {
		fmt.Fprintf(&b, "port %s %s\n", p.Name, p.Dir)
	}
	for _, n := range s.netOrder {
		fmt.Fprintf(&b, "net %s\n", n)
	}
	for _, g := range s.gates {
		fmt.Fprintf(&b, "gate %s %s %s %s\n", g.Name, g.Type, g.Out, strings.Join(g.Ins, " "))
	}
	for _, in := range s.instances {
		fmt.Fprintf(&b, "inst %s %s %s\n", in.Name, in.Cell, in.View)
		ports := make([]string, 0, len(in.Conns))
		for p := range in.Conns {
			ports = append(ports, p)
		}
		sort.Strings(ports)
		for _, p := range ports {
			fmt.Fprintf(&b, "conn %s %s %s\n", in.Name, p, in.Conns[p])
		}
	}
	return b.Bytes()
}

// Parse reads a schematic design file produced by Format.
func Parse(data []byte) (*Schematic, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 64*1024*1024)
	var s *Schematic
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "schematic":
			if len(f) != 2 {
				return nil, fmt.Errorf("schematic: line %d: bad header", lineNo)
			}
			s = New(f[1])
		case "port":
			if s == nil {
				return nil, fmt.Errorf("schematic: line %d: port before header", lineNo)
			}
			if len(f) != 3 {
				return nil, fmt.Errorf("schematic: line %d: bad port", lineNo)
			}
			dir, err := parseDir(f[2])
			if err != nil {
				return nil, fmt.Errorf("schematic: line %d: %w", lineNo, err)
			}
			if err := s.AddPort(f[1], dir); err != nil {
				return nil, fmt.Errorf("schematic: line %d: %w", lineNo, err)
			}
		case "net":
			if s == nil || len(f) != 2 {
				return nil, fmt.Errorf("schematic: line %d: bad net", lineNo)
			}
			if err := s.AddNet(f[1]); err != nil {
				return nil, fmt.Errorf("schematic: line %d: %w", lineNo, err)
			}
		case "gate":
			if s == nil || len(f) < 4 {
				return nil, fmt.Errorf("schematic: line %d: bad gate", lineNo)
			}
			if err := s.AddGate(f[1], GateType(f[2]), f[3], f[4:]...); err != nil {
				return nil, fmt.Errorf("schematic: line %d: %w", lineNo, err)
			}
		case "inst":
			if s == nil || len(f) != 4 {
				return nil, fmt.Errorf("schematic: line %d: bad inst", lineNo)
			}
			if err := s.AddInstance(f[1], f[2], f[3]); err != nil {
				return nil, fmt.Errorf("schematic: line %d: %w", lineNo, err)
			}
		case "conn":
			if s == nil || len(f) != 4 {
				return nil, fmt.Errorf("schematic: line %d: bad conn", lineNo)
			}
			if err := s.Connect(f[1], f[2], f[3]); err != nil {
				return nil, fmt.Errorf("schematic: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("schematic: line %d: unknown keyword %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("schematic: %w", err)
	}
	if s == nil {
		return nil, fmt.Errorf("schematic: empty file")
	}
	return s, nil
}
