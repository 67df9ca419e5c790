// Package codec provides the framed, checksummed container used to
// persist built L2R routing infrastructure. The offline pipeline of the
// paper (clustering, preference learning, transfer) takes minutes to
// hours at scale — Section VII-C reports up to 245 minutes for D1 — so
// a production deployment builds once and ships the artifact; this
// package defines that artifact's on-disk framing.
//
// Frame layout:
//
//	magic   [4]byte  "L2RA"
//	version uint16   big-endian, supplied by the caller
//	length  uint64   big-endian payload byte count
//	sum     uint64   big-endian FNV-64a of the payload
//	payload []byte   a gob stream (WriteFrame) or a hand-laid one
//	                 (WriteFrameBytes)
//
// Readers verify magic, version, length and checksum before decoding,
// so truncated or corrupted artifacts fail loudly instead of yielding a
// half-initialized router; the payload buffer grows with the bytes that
// arrive, not with the length a header claims. Enc and Dec are the flat
// encodings hand-laid payloads are made of.
package codec
