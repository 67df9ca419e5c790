// Package roadnet provides the road-network substrate of the
// reproduction: a weighted directed graph G = (V, E, W) whose weight set W
// contains the paper's four functions — distance (DI), travel time (TT),
// fuel consumption (FC) and road type (RT) — plus deterministic synthetic
// generators standing in for the OpenStreetMap extracts used in the paper
// (N1 Denmark, N2 Chengdu).
package roadnet
