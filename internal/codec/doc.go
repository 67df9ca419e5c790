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
//	payload []byte   laid out by hand with Enc, read with Dec (a
//	                 section inside may come from any writer:
//	                 core's metadata section is gob)
//
// Readers verify magic, version, length and checksum before decoding,
// so truncated or corrupted artifacts fail loudly instead of yielding a
// half-initialized router; the payload buffer grows with the bytes that
// arrive, not with the length a header claims. Enc and Dec are the flat
// encodings hand-laid payloads are made of.
//
// ReadFrameBytes reads and verifies in one call. ReadFrameUnverified
// checks everything but the checksum, which Frame.Verify checks later.
// One caller uses the split: core.LoadOnto, which hashes the payload on
// one goroutine while it decodes it on another. That is safe because
// its decoder accepts any payload — it checks every count and ID,
// never panics and allocates within a bound linear in the payload
// (core's FuzzLoad frames arbitrary payloads with valid checksums) —
// and because LoadOnto returns nothing decoded before Verify has
// passed: a mismatch is ErrCorrupt whatever the decoder made of the
// bytes.
package codec
