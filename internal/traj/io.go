package traj

import (
	"bufio"
	"fmt"
	"io"
)

// TSV serialization for trajectory sets, mirroring roadnet's format:
//
//	T	<id>	<driver>	<depart_s>	<peak>	<#records>
//	R	<t_s>	<x>	<y>
//
// Ground-truth and matched paths are intentionally not serialized: like
// the paper's raw datasets, persisted trajectories are GPS records only,
// and paths are recovered by map matching.

// WriteTSV serializes the trajectories.
func WriteTSV(w io.Writer, ts []*Trajectory) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# learn2route trajectories: %d\n", len(ts))
	for _, t := range ts {
		fmt.Fprintf(bw, "T\t%d\t%d\t%.3f\t%t\t%d\n", t.ID, t.Driver, t.Depart, t.Peak, len(t.Records))
		for _, r := range t.Records {
			fmt.Fprintf(bw, "R\t%.3f\t%.3f\t%.3f\n", r.T, r.P.X, r.P.Y)
		}
	}
	return bw.Flush()
}
