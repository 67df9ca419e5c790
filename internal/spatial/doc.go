// Package spatial provides a uniform grid index over road-network
// edges. Map matching queries it for candidate edges near a GPS record.
package spatial
