package core

import (
	"testing"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TestCHBackendSurvivesCloneAndIngest checks the hierarchy Build
// contracted is carried through Clone and IngestClone→Ingest (the
// serving swap path): every copy runs on the same topology and metric
// table, and the ingest clone still routes.
func TestCHBackendSurvivesCloneAndIngest(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(31))
	cfg := traj.D2Like(31, 260)
	all := traj.NewSimulator(g, cfg).Run()
	train, test := traj.Split(all, 0.75*cfg.HorizonSec)
	r, err := Build(g, train, Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CHShortcuts < 0 || st.CHBuildTime <= 0 {
		t.Fatalf("CH build stats not recorded: %+v", st)
	}
	topo := r.eng.Topology()
	if r.Clone().eng.Topology() != topo {
		t.Fatal("Clone runs on another hierarchy")
	}
	next := r.IngestClone()
	batch := test
	if len(batch) > 20 {
		batch = batch[:20]
	}
	next.Ingest(batch, IngestOptions{SkipMapMatching: true})
	if next.eng.Topology() != topo || next.eng.Customizations() != r.eng.Customizations() {
		t.Fatal("IngestClone → Ingest left the parent's hierarchy or metric table")
	}
	if got := next.Route(batch[0].Source(), batch[0].Destination()); got.Evidence == EvidenceNone && len(batch[0].Truth) >= 2 {
		t.Fatal("ingest clone cannot route after ingest")
	}
}
