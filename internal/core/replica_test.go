package core

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fmcad"
	"repro/internal/jcf"
	"repro/internal/otod"
	"repro/internal/repl"
)

// TestReplicaAnswersMapping: the bindings are part of the master's store,
// so a hybrid attached to a replica view of it answers the mapping
// queries as the primary does — for bindings present at attach, for one
// committed later (it arrives through the feed), and after promotion.
func TestReplicaAnswersMapping(t *testing.T) {
	w := newHW(t, jcf.Release30)
	dir := filepath.Dir(w.h.StageDir())
	ln, d := repl.Pipe()
	pub := repl.NewPublisher(w.h.JCF.ReplicationSource())
	go func() { _ = pub.Serve(ln) }()
	t.Cleanup(pub.Close)
	schema, err := otod.JCFModel().Schema()
	if err != nil {
		t.Fatal(err)
	}
	rep := repl.NewReplica(schema, d, repl.WithReconnectBackoff(time.Millisecond))
	rep.Start()
	t.Cleanup(rep.Close)
	view, err := jcf.NewReplicaView(rep.Store(), w.h.JCF.Release())
	if err != nil {
		t.Fatal(err)
	}
	catchUp := func() {
		t.Helper()
		if err := rep.WaitFor(w.h.JCF.FeedLSN(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	catchUp()
	lib, err := fmcad.Open(filepath.Join(dir, "library"))
	if err != nil {
		t.Fatal(err)
	}
	rh, err := attach(view, lib, dir)
	if err != nil {
		t.Fatal(err)
	}
	sameMapping(t, "after attach", w.h, rh)
	if problems := rh.VerifyMapping(); len(problems) != 0 {
		t.Fatalf("replica mapping problems: %v", problems)
	}

	cv, err := w.h.NewDesignCell(w.project, "b", w.h.DefaultFlowName(), w.team)
	if err != nil {
		t.Fatal(err)
	}
	catchUp()
	if b, err := rh.BindingFor(cv); err != nil || b.FMCADCell != "b_v1" {
		t.Fatalf("replica BindingFor(new version) = %+v, %v", b, err)
	}
	sameMapping(t, "after a new cell version", w.h, rh)

	_ = rep.Promote()
	if err := view.PromoteToPrimary(); err != nil {
		t.Fatal(err)
	}
	sameMapping(t, "after promotion", w.h, rh)
}
