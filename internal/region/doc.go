// Package region implements Section IV-B of the paper: the region
// graph built on top of the clustering output (internal/cluster).
//
// Vertices are regions — modularity-clustered sets of road
// intersections. Region edges are T-edges when trajectories connect
// the two regions, carrying the trajectory path sets (PathInfo) and
// transfer centers the later pipeline stages learn from, and B-edges
// when added by the BFS procedure (ConnectBFS) that makes the region
// graph connected despite sparse trajectory coverage. Regions also
// keep inner-region paths for same-region routing (Section VI,
// Case 1).
//
// The region graph is the *mutable* half of a built router: live
// trajectory ingestion (core.Router.Ingest) appends to path sets,
// upgrades B-edges to T-edges and relearns preferences. Snapshot and
// Restore serialize it for artifacts; CloneCOW copies it for the next
// writer, sharing every edge, path set and per-region list until a
// write privatizes exactly that piece — for an edge, the struct with
// its kind, applied preference and fitted preference (Edge.Fit) plus
// its two path lists. Everything else a router holds (road network,
// spatial index, CH hierarchy) stays immutable and shared across
// clones.
//
// The graph derives nothing beyond the vertex→region map and each
// region's adjacency, kept sorted by neighbor region: FindEdge searches
// that adjacency, and path sets dedup by comparing contents. AddPaths
// copies each trajectory once, and every path it stores is a window of
// that copy whose capacity ends where the window does.
package region
