// Package binio is golden testdata for the decodebound check's one
// exemption: loaded under an import path ending in internal/binio, raw
// binary reads are the decoder's own implementation, not a finding.
package binio

import "encoding/binary"

// u32 is the read every other package must go through.
func u32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }
