package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fmcad"
	"repro/internal/jcf"
	"repro/internal/obs"
	"repro/internal/oms"
	"repro/internal/tools/dsim"
	"repro/internal/tools/layout"
	"repro/internal/tools/schematic"
)

// designer-flow: two designers, each on its own half of a hybrid
// library. Every fourth cell is a parent instantiating two leaf half
// adders of the same designer; every cell carries one "spare" gate that
// each schematic-entry run replaces with a seeded gate type, so an edit
// changes exactly one gate and never the cell's function.

const (
	designers        = 2
	cellsPerDesigner = 64
	probeCell        = "perfbench_probe"
)

func user(d int) string { return fmt.Sprintf("designer%d", d) }

type dcell struct {
	name   string // JCF cell name
	slave  string // bound FMCAD cell name
	cv     oms.OID
	schDO  oms.OID
	parent bool
	kids   []int // indexes of the two leaf children (parents only)
}

// inputs returns the cell's primary inputs, in stimulus order.
func (c *dcell) inputs() []string {
	if c.parent {
		return []string{"a0", "b0", "a1", "b1"}
	}
	return []string{"a", "b"}
}

type designerWorld struct {
	dir   string
	h     *core.Hybrid
	reg   *obs.Registry
	cells [designers][]dcell
	probe bool
}

func (w *designerWorld) close() { removeDir(w.dir) }

var spareTypes = []schematic.GateType{schematic.And2, schematic.Or2, schematic.Nand2,
	schematic.Nor2, schematic.Xor2, schematic.Xnor2}

// spareEdit returns a schematic-entry edit that (on first entry) lays
// down the cell's ports and, for a leaf, its half-adder gates, then
// replaces the spare gate with one of type t. Everything else — ports,
// nets, gates, instances and their connections — is carried over.
func spareEdit(c *dcell, t schematic.GateType) func(*schematic.Schematic) error {
	return func(s *schematic.Schematic) error {
		fresh := schematic.New(s.Cell)
		ports := s.Ports()
		if len(ports) == 0 {
			for _, in := range c.inputs() {
				ports = append(ports, schematic.Port{Name: in, Dir: schematic.In})
			}
			for _, out := range outputs(c) {
				ports = append(ports, schematic.Port{Name: out, Dir: schematic.Out})
			}
		}
		for _, p := range ports {
			if err := fresh.AddPort(p.Name, p.Dir); err != nil {
				return err
			}
		}
		for _, n := range append(s.Nets(), "spare") {
			if !fresh.HasNet(n) {
				if err := fresh.AddNet(n); err != nil {
					return err
				}
			}
		}
		gates := s.Gates()
		if len(gates) == 0 && !c.parent {
			gates = []schematic.Gate{
				{Name: "x1", Type: schematic.Xor2, Out: "sum", Ins: []string{"a", "b"}},
				{Name: "a1", Type: schematic.And2, Out: "carry", Ins: []string{"a", "b"}},
			}
		}
		for _, g := range gates {
			if g.Name == "sp" {
				continue
			}
			if err := fresh.AddGate(g.Name, g.Type, g.Out, g.Ins...); err != nil {
				return err
			}
		}
		ins := c.inputs()
		if err := fresh.AddGate("sp", t, "spare", ins[0], ins[len(ins)-1]); err != nil {
			return err
		}
		for _, in := range s.Instances() {
			if err := fresh.AddInstance(in.Name, in.Cell, in.View); err != nil {
				return err
			}
			for port, net := range in.Conns {
				if err := fresh.Connect(in.Name, port, net); err != nil {
					return err
				}
			}
		}
		return s.CopyFrom(fresh)
	}
}

func outputs(c *dcell) []string {
	if c.parent {
		return []string{"s0", "c0", "s1", "c1"}
	}
	return []string{"sum", "carry"}
}

// expectation is one output value the simulation must show.
type expectation struct {
	net string
	at  uint64
	val string
}

// stimulus draws four seeded input vectors, 10 time units apart, and
// returns the stimulus text with the half-adder outputs expected just
// before each next vector.
func stimulus(rng *rand.Rand, c *dcell) ([]byte, []expectation) {
	var b bytes.Buffer
	var want []expectation
	ins := c.inputs()
	for k := 0; k < 4; k++ {
		t := uint64(10 * k)
		v := map[string]int{}
		for _, in := range ins {
			v[in] = rng.Intn(2)
			fmt.Fprintf(&b, "at %d set %s %d\n", t, in, v[in])
		}
		add := func(sum, carry string, a, bb int) {
			want = append(want, expectation{sum, t + 9, strconv.Itoa(a ^ bb)},
				expectation{carry, t + 9, strconv.Itoa(a & bb)})
		}
		if c.parent {
			add("s0", "c0", v["a0"], v["b0"])
			add("s1", "c1", v["a1"], v["b1"])
		} else {
			add("sum", "carry", v["a"], v["b"])
		}
	}
	b.WriteString("run 40\n")
	return b.Bytes(), want
}

// checkWaves verifies a wave dump ("<time> <net> <value>" lines) shows
// every expected output value.
func checkWaves(waves []byte, want []expectation) error {
	type change struct {
		t   uint64
		val string
	}
	byNet := map[string][]change{}
	sc := bufio.NewScanner(bytes.NewReader(waves))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 {
			return fmt.Errorf("malformed wave line %q", sc.Text())
		}
		t, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return fmt.Errorf("malformed wave line %q", sc.Text())
		}
		byNet[f[1]] = append(byNet[f[1]], change{t, f[2]})
	}
	for _, e := range want {
		got := "x"
		for _, ch := range byNet[e.net] {
			if ch.t <= e.at {
				got = ch.val
			}
		}
		if got != e.val {
			return fmt.Errorf("net %s at t=%d is %s, want %s", e.net, e.at, got, e.val)
		}
	}
	return nil
}

// buildDesignerWorld assembles the hybrid and builds every cell through
// the real encapsulated flow.
func buildDesignerWorld(dir string, perDesigner int, seed int64, probe bool) (*designerWorld, error) {
	h, err := core.NewHybrid(jcf.Release30, dir)
	if err != nil {
		return nil, err
	}
	w := &designerWorld{dir: dir, h: h, reg: obs.NewRegistry(), probe: probe}
	h.JCF.RegisterMetrics(w.reg)
	if err := w.populate(perDesigner, seed); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *designerWorld) populate(perDesigner int, seed int64) error {
	fw := w.h.JCF
	team, err := fw.CreateTeam("flow")
	if err != nil {
		return err
	}
	for d := 0; d < designers; d++ {
		if _, err := fw.CreateUser(user(d)); err != nil {
			return err
		}
		uid, err := fw.User(user(d))
		if err != nil {
			return err
		}
		if err := fw.AddMember(team, uid); err != nil {
			return err
		}
	}
	project, err := fw.CreateProject("bench", team)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	for d := 0; d < designers; d++ {
		for i := 0; i < perDesigner; i++ {
			if err := w.addCell(project, team, d, i, rng); err != nil {
				return fmt.Errorf("cell %d of designer %d: %w", i, d, err)
			}
		}
	}
	if w.probe {
		if err := w.h.Lib.CreateCell(probeCell); err != nil {
			return err
		}
		if err := w.h.Lib.CreateCellview(probeCell, core.ViewSchematic); err != nil {
			return err
		}
	}
	return nil
}

// addCell creates cell i of designer d and runs its first flow; a
// parent's hierarchy is submitted on the desktop before its instances
// are placed.
func (w *designerWorld) addCell(project, team oms.OID, d, i int, rng *rand.Rand) error {
	h, u := w.h, user(d)
	c := dcell{name: fmt.Sprintf("d%dc%03d", d, i), parent: i%4 == 3}
	cv, err := h.NewDesignCell(project, c.name, h.DefaultFlowName(), team)
	if err != nil {
		return err
	}
	b, err := h.BindingFor(cv)
	if err != nil {
		return err
	}
	c.cv, c.slave, c.schDO = cv, b.FMCADCell, b.DesignObjects[core.ViewSchematic]
	if c.parent {
		c.kids = []int{i - 3, i - 2}
		for _, k := range c.kids {
			if err := h.SubmitHierarchyManual(cv, w.cells[d][k].cv); err != nil {
				return err
			}
		}
	}
	w.cells[d] = append(w.cells[d], c)
	if err := h.JCF.Reserve(u, cv); err != nil {
		return err
	}
	if _, err := h.RunSchematicEntry(u, cv, spareEdit(&c, spareTypes[rng.Intn(len(spareTypes))]), core.RunOpts{}); err != nil {
		return err
	}
	for n, k := range c.kids {
		conns := map[string]string{"a": fmt.Sprintf("a%d", n), "b": fmt.Sprintf("b%d", n),
			"sum": fmt.Sprintf("s%d", n), "carry": fmt.Sprintf("c%d", n)}
		if _, err := h.AddSchematicInstance(u, cv, w.cells[d][k].cv, fmt.Sprintf("u%d", n), conns, core.RunOpts{}); err != nil {
			return err
		}
	}
	stim, want := stimulus(rng, &c)
	_, waves, err := h.RunSimulation(u, cv, stim, core.RunOpts{})
	if err != nil {
		return err
	}
	if err := checkWaves(waves, want); err != nil {
		return fmt.Errorf("output check failed: %s: %w", c.name, err)
	}
	if _, err := h.RunLayoutEntry(u, cv, nil, core.RunOpts{}); err != nil {
		return err
	}
	return h.JCF.Publish(u, cv)
}

// flowMeter is one designer goroutine's tally.
type flowMeter struct {
	tr                   *tracer
	op                   int64
	sch, sim, lay        latencies
	reserve, publish     latencies
	sessionOpen, metaWrt latencies
	toolsSim, toolsLay   latencies
	flows, toolRuns      int64
	attempted, failed    int64
	probeWrites          int64
	waveChecks           int64
	probeSeq             int
	problems, errs       []string
	stageDir             string
}

// call times one public call as a span under root and tallies it.
func (m *flowMeter) call(name string, root open, lat *latencies, fn func() error) bool {
	sp := m.tr.start(name, m.op, root.id)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	m.attempted++
	if err != nil {
		m.failed++
		if len(m.errs) < 5 {
			m.errs = append(m.errs, fmt.Sprintf("%s: %v", name, err))
		}
		return false
	}
	lat.add(d)
	return true
}

// toolRunsDone counts the meter's successful tool runs so far.
func (m *flowMeter) toolRunsDone() int64 {
	return int64(m.sch.n() + m.sim.n() + m.lay.n())
}

// step runs one reserve → schematic → simulate → layout → publish cycle
// on a seeded pick of designer d's cells.
func (w *designerWorld) step(d int, rng *rand.Rand, m *flowMeter) {
	h, u := w.h, user(d)
	c := &w.cells[d][rng.Intn(len(w.cells[d]))]
	edit := spareEdit(c, spareTypes[rng.Intn(len(spareTypes))])
	stim, want := stimulus(rng, c)
	m.op++
	root := m.tr.start("flow", m.op, 0)
	defer root.end()
	if !m.call("jcf.reserve", root, &m.reserve, func() error { return h.JCF.Reserve(u, c.cv) }) {
		return
	}
	ok := m.call("core.schematic_entry", root, &m.sch, func() error {
		_, err := h.RunSchematicEntry(u, c.cv, edit, core.RunOpts{})
		return err
	})
	var waves []byte
	ok = ok && m.call("core.simulate", root, &m.sim, func() error {
		var err error
		_, waves, err = h.RunSimulation(u, c.cv, stim, core.RunOpts{})
		return err
	})
	if ok {
		m.waveChecks++
		if err := checkWaves(waves, want); err != nil {
			m.problems = append(m.problems, fmt.Sprintf("%s: %v", c.name, err))
		}
	}
	ok = ok && m.call("core.layout_entry", root, &m.lay, func() error {
		_, err := h.RunLayoutEntry(u, c.cv, nil, core.RunOpts{})
		return err
	})
	if !ok {
		// Leave the cell reservable for the next pick.
		m.attempted++
		if err := h.JCF.ReleaseReservation(u, c.cv); err != nil {
			m.failed++
		}
		return
	}
	if m.call("jcf.publish", root, &m.publish, func() error { return h.JCF.Publish(u, c.cv) }) {
		m.flows++
	}
	if w.probe {
		w.probes(d, c, stim, m)
	}
}

// probes times single layers from outside, between flows: opening an
// FMCAD session, one whole-.meta rewrite, and the simulator and layout
// generator on the cell's exported current schematic.
func (w *designerWorld) probes(d int, c *dcell, stim []byte, m *flowMeter) {
	t0 := time.Now()
	w.h.Lib.NewSession(user(d))
	m.sessionOpen.add(time.Since(t0))

	m.probeSeq++
	t0 = time.Now()
	err := w.h.Lib.SetProperty(probeCell, core.ViewSchematic, 1, user(d), strconv.Itoa(m.probeSeq))
	m.metaWrt.add(time.Since(t0))
	m.probeWrites++
	if err != nil {
		m.problems = append(m.problems, fmt.Sprintf("probe SetProperty: %v", err))
		return
	}

	sch, err := w.exportSchematic(c, m)
	if err != nil {
		m.problems = append(m.problems, fmt.Sprintf("probe export %s: %v", c.name, err))
		return
	}
	kids := map[string]*schematic.Schematic{}
	for _, k := range c.kids {
		kc := &w.cells[d][k]
		ks, err := w.exportSchematic(kc, m)
		if err != nil {
			m.problems = append(m.problems, fmt.Sprintf("probe export %s: %v", kc.name, err))
			return
		}
		kids[kc.slave] = ks
	}
	t0 = time.Now()
	err = simulateProbe(sch, dsim.MapResolver(kids), stim)
	m.toolsSim.add(time.Since(t0))
	if err != nil {
		m.problems = append(m.problems, fmt.Sprintf("probe simulate %s: %v", c.name, err))
	}
	t0 = time.Now()
	_, err = layout.FromSchematic(sch, 16)
	m.toolsLay.add(time.Since(t0))
	if err != nil {
		m.problems = append(m.problems, fmt.Sprintf("probe layout %s: %v", c.name, err))
	}
}

func simulateProbe(sch *schematic.Schematic, resolve dsim.Resolver, stim []byte) error {
	circuit, err := dsim.Flatten(sch, resolve)
	if err != nil {
		return err
	}
	st, err := dsim.ParseStimulus(stim)
	if err != nil {
		return err
	}
	sim := dsim.NewSimulator(circuit)
	if _, err := st.Apply(sim); err != nil {
		return err
	}
	sim.DumpWaves()
	return nil
}

// exportSchematic copies the cell's latest schematic version out of the
// database (the trusted export, no workspace check) and parses it.
func (w *designerWorld) exportSchematic(c *dcell, m *flowMeter) (*schematic.Schematic, error) {
	path := filepath.Join(m.stageDir, c.name+".sch")
	if err := w.h.JCF.ExportVersionData(w.h.JCF.LatestVersion(c.schDO), path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return schematic.Parse(data)
}

// designerPass is the merged outcome of one measured pass.
type designerPass struct {
	all      flowMeter
	tool     latencies
	elapsed  time.Duration
	seqDelta int64
	confl    int64
	rsvConfl int64
	heapMB   float64
	win      *window
	rt0, rt1 runtimeCounters
	reg0     regSnap
	reg1     regSnap
}

// drive runs both designers closed-loop for dur.
func (w *designerWorld) drive(seed int64, dur time.Duration, minOps int64, tr *tracer) (*designerPass, error) {
	p := &designerPass{}
	lib, fw := w.h.Lib, w.h.JCF
	seq0, conf0, rc0 := lib.Seq(), lib.Conflicts(), fw.ReserveConflicts()
	p.reg0 = snap(w.reg)
	p.rt0 = readRuntime()
	start := time.Now()
	win := newWindow(start, dur, minOps)
	var wg sync.WaitGroup
	var meters []*flowMeter
	for d := 0; d < designers; d++ {
		m := &flowMeter{tr: tr, op: int64(d) << 40, stageDir: filepath.Join(w.dir, fmt.Sprintf("probe%d", d))}
		if err := os.MkdirAll(m.stageDir, 0o755); err != nil {
			return nil, err
		}
		meters = append(meters, m)
		rng := rand.New(rand.NewSource(seed*7919 + int64(d) + 1))
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for win.begin() {
				n := m.toolRunsDone()
				w.step(d, rng, m)
				win.end(m.toolRunsDone() - n)
			}
		}(d)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.rt1 = readRuntime()
	p.heapMB, p.win = win.heapMB(), win
	p.reg1 = snap(w.reg)
	p.seqDelta = lib.Seq() - seq0
	p.confl = lib.Conflicts() - conf0
	p.rsvConfl = fw.ReserveConflicts() - rc0
	for _, m := range meters {
		a := &p.all
		a.sch.merge(&m.sch)
		a.sim.merge(&m.sim)
		a.lay.merge(&m.lay)
		a.reserve.merge(&m.reserve)
		a.publish.merge(&m.publish)
		a.sessionOpen.merge(&m.sessionOpen)
		a.metaWrt.merge(&m.metaWrt)
		a.toolsSim.merge(&m.toolsSim)
		a.toolsLay.merge(&m.toolsLay)
		a.flows += m.flows
		a.attempted += m.attempted
		a.failed += m.failed
		a.probeWrites += m.probeWrites
		a.waveChecks += m.waveChecks
		a.problems = append(a.problems, m.problems...)
		a.errs = append(a.errs, m.errs...)
	}
	p.tool.merge(&p.all.sch)
	p.tool.merge(&p.all.sim)
	p.tool.merge(&p.all.lay)
	p.all.toolRuns = int64(p.tool.n())
	return p, nil
}

// metaWritesPerToolRun is Δ Library.Seq per tool run, net of the
// traced pass's own probe writes (one per SetProperty probe).
func (p *designerPass) metaWritesPerToolRun() float64 {
	return ratio(float64(p.seqDelta-p.all.probeWrites), float64(p.all.toolRuns))
}

// finalChecks runs the end-of-run output checks.
func (w *designerWorld) finalChecks(rep *report, p *designerPass) {
	for _, pr := range p.all.problems {
		rep.problemf("designer-flow: %s", pr)
	}
	if bad := w.h.VerifyMapping(); len(bad) > 0 {
		rep.problemf("designer-flow: VerifyMapping: %d problems, first: %s", len(bad), bad[0])
	}
	for _, e := range p.all.errs {
		rep.linef("designer-flow error: %s", e)
	}
}

func perDesignerCells(cfg config) int {
	if cfg.tiny {
		return 8
	}
	return cellsPerDesigner
}

func runDesignerFlow(cfg config) (*report, error) {
	rep := newReport()
	build := func(probe bool) func(dir string) (*designerWorld, error) {
		return func(dir string) (*designerWorld, error) {
			return buildDesignerWorld(dir, perDesignerCells(cfg), cfg.seed, probe)
		}
	}
	w, setup, err := setupMedian(cfg, "flow", build(false))
	if err != nil {
		return nil, err
	}
	ref, err := w.drive(cfg.seed, passDur(cfg), passMinOps(cfg), nil)
	if err != nil {
		w.close()
		return nil, err
	}
	w.finalChecks(rep, ref)
	metaBytes := fileSize(filepath.Join(w.h.Lib.Dir(), fmcad.MetaFileName))
	w.close()
	rep.linef("designer-flow: %d designers, %d cells each (every 4th a parent of two leaves), closed loop, 1 goroutine per designer; %d wave checks passed", designers, perDesignerCells(cfg), ref.all.waveChecks)
	err = rep.record(cfg, setup, summary{workload: "designer-flow", op: "tool_run (one Run* call, pooled over the 3 tools)",
		lat: &ref.tool, ops: ref.all.toolRuns, rate: "flows_per_s", units: ref.all.flows, elapsed: ref.elapsed,
		cpu: ref.rt1.cpu - ref.rt0.cpu, win: ref.win, heapMB: ref.heapMB, attempted: ref.all.attempted, failed: ref.all.failed})
	if err != nil || !cfg.trace {
		return rep, err
	}

	tr := newTracer()
	tw, _, err := setupMedian(cfg, "flow-traced", build(true))
	if err != nil {
		return nil, err
	}
	defer tw.close()
	tp, err := tw.drive(cfg.seed, passDur(cfg), 0, tr)
	if err != nil {
		return nil, err
	}
	tw.finalChecks(rep, tp)
	L := rep.layers
	L["core.schematic_entry_ms"] = ms(tp.all.sch.p50())
	L["core.simulate_ms"] = ms(tp.all.sim.p50())
	L["core.layout_entry_ms"] = ms(tp.all.lay.p50())
	L["fmcad.meta_writes_per_tool_run"] = tp.metaWritesPerToolRun()
	L["fmcad.meta_bytes"] = float64(metaBytes)
	L["fmcad.session_open_ms"] = ms(tp.all.sessionOpen.p50())
	L["fmcad.meta_write_ms"] = ms(tp.all.metaWrt.p50())
	L["fmcad.checkout_conflicts"] = float64(tp.confl)
	L["tools.simulate_ms"] = ms(tp.all.toolsSim.p50())
	L["tools.layout_ms"] = ms(tp.all.toolsLay.p50())
	fillJCFCheckin(L, tp.reg0, tp.reg1)
	L["jcf.publish_ms"] = ms(tp.all.publish.p50())
	L["jcf.reserve_ms"] = ms(tp.all.reserve.p50())
	L["jcf.reserve_conflicts"] = float64(tp.rsvConfl)
	fillOMS(L, tp.reg0, tp.reg1, tp.all.toolRuns)
	fillRuntime(L, ref.rt0, ref.rt1, ref.all.toolRuns)
	L["obs.trace_overhead_pct"] = overheadPct(&ref.tool, &tp.tool)
	rep.linef("designer-flow traced: %d tool runs, %d probe rounds; fmcad.meta_writes_per_tool_run traced=%.4f untraced=%.4f",
		tp.all.toolRuns, tp.all.probeWrites, tp.metaWritesPerToolRun(), ref.metaWritesPerToolRun())
	// Fidelity guard: the probes and spans must not change how much the
	// program writes per tool run.
	if tp.metaWritesPerToolRun() != ref.metaWritesPerToolRun() {
		rep.problemf("fidelity: fmcad.meta_writes_per_tool_run traced %.4f != untraced %.4f",
			tp.metaWritesPerToolRun(), ref.metaWritesPerToolRun())
	}
	return rep, tr.write(cfg.traceOut)
}

// passDur is the length of one measured pass: the whole run untraced;
// a traced run splits it between its untraced reference pass and its
// traced pass.
func passDur(cfg config) time.Duration {
	if cfg.trace {
		return cfg.dur / 2
	}
	return cfg.dur
}

// passMinOps is the op floor of an untraced pass (see window).
func passMinOps(cfg config) int64 {
	if cfg.tiny {
		return 0
	}
	return minOps
}

// overheadPct compares the traced and untraced op medians.
func overheadPct(untraced, traced *latencies) float64 {
	u, t := untraced.p50(), traced.p50()
	if u == 0 {
		return 0
	}
	return 100 * float64(t-u) / float64(u)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// fillJCFCheckin reads the checkin pipeline's obs stage histograms.
func fillJCFCheckin(L map[string]float64, r0, r1 regSnap) {
	L["jcf.checkin_ms"] = histMeanMs(r0, r1, "jcf_checkin_ns")
	L["jcf.checkin_read_ms"] = histMeanMs(r0, r1, "jcf_checkin_read_ns")
	L["jcf.checkin_digest_ms"] = histMeanMs(r0, r1, "jcf_checkin_digest_ns")
	L["jcf.checkin_apply_ms"] = histMeanMs(r0, r1, "jcf_checkin_apply_ns")
	L["jcf.publish_gate_ms"] = histMeanMs(r0, r1, "jcf_publish_gate_ns")
}

// fillOMS reads the primary store's obs cells; checkins is the number
// of CheckInData calls the ops are spread over.
func fillOMS(L map[string]float64, r0, r1 regSnap, checkins int64) {
	L["oms.apply_ms"] = histMeanMs(r0, r1, "oms_apply_ns")
	L["oms.ops_per_checkin"] = ratio(float64(scalarDelta(r0, r1, "oms_ops_total")), float64(checkins))
	L["oms.stripe_wait_ms"] = histMeanMs(r0, r1, "oms_stripe_wait_ns")
	L["oms.snapshot_hold_ms"] = histMeanMs(r0, r1, "oms_snapshot_hold_ns")
	L["oms.feed_evictions"] = float64(scalarDelta(r0, r1, "oms_feed_evictions_total"))
	L["oms.feed_lag_trips"] = float64(scalarDelta(r0, r1, "oms_feed_lag_trips_total"))
}

// fillRuntime derives the runtime metrics from an untraced pass.
func fillRuntime(L map[string]float64, a, b runtimeCounters, ops int64) {
	L["runtime.alloc_bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), float64(ops))
	L["runtime.gc_cpu_share"] = ratio(b.gcCPU-a.gcCPU, b.busyCPU-a.busyCPU)
}
