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
// upgrades B-edges to T-edges and relearns preferences. Append writes
// its image for artifacts and Decode builds it back from one (image.go);
// CloneCOW copies it for the next writer, sharing every edge, path set
// and per-region list until a write privatizes exactly that piece — for
// an edge, the struct with its kind, applied preference and fitted
// preference (Edge.Fit) plus its two path lists. Everything else a router holds (road network,
// spatial index, CH hierarchy) stays immutable and shared across
// clones.
//
// The graph derives nothing beyond the vertex→region map and each
// region's adjacency, a Link (neighbor ID, edge ID) per neighbor
// sorted by neighbor: FindEdge and region search read the neighbor IDs
// without touching an Edge, and path sets dedup by contents. AddPaths
// copies each batch of trajectories once, into a batch of the graph's
// trip table (trips.go), and every path it stores is a window of its
// trip whose capacity ends where the window does; materialized B-edge
// paths are trips of their own. Each stored path knows its trip and
// offset, so the image writes each trip once and Decode cuts every path
// from the trips it decodes: a loaded graph holds each trip once, as a
// built one does.
package region
