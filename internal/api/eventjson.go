package api

import (
	"math"
	"strconv"
)

// AppendEvent appends the JSON encoding of ev to dst and returns the
// extended slice. It is the one event encoder of the repository: the
// write-ahead log frames events with it and the SSE endpoint streams
// them with it, and with a pre-grown dst it allocates nothing.
//
// For finite floats and valid UTF-8 strings — every event the managers
// emit — the output is byte-identical to json.Marshal(ev): the same
// field order and omitempty rules, the same float spelling (1000000,
// not 1e+06) and the same escapes, including <, >, &, U+2028 and
// U+2029. Decoders therefore stay plain json.Unmarshal. A non-finite
// float, which json.Marshal refuses and no manager emits, is written as
// null so the output stays valid JSON.
func AppendEvent(dst []byte, ev Event) []byte {
	dst = append(dst, `{"device":`...)
	dst = strconv.AppendInt(dst, int64(ev.Device), 10)
	if ev.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, ev.Seq, 10)
	}
	dst = append(dst, `,"type":`...)
	dst = appendJSONString(dst, string(ev.Type))
	if ev.At != 0 {
		dst = append(dst, `,"at":`...)
		dst = appendJSONFloat(dst, ev.At)
	}
	if ev.JobID != 0 {
		dst = append(dst, `,"job_id":`...)
		dst = strconv.AppendInt(dst, int64(ev.JobID), 10)
	}
	if ev.App != "" {
		dst = append(dst, `,"app":`...)
		dst = appendJSONString(dst, ev.App)
	}
	if ev.Deadline != 0 {
		dst = append(dst, `,"deadline":`...)
		dst = appendJSONFloat(dst, ev.Deadline)
	}
	if ev.Missed {
		dst = append(dst, `,"missed":true`...)
	}
	if ev.Dropped != 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendInt(dst, int64(ev.Dropped), 10)
	}
	if ev.Payload != "" {
		dst = append(dst, `,"payload":`...)
		dst = appendJSONString(dst, ev.Payload)
	}
	return append(dst, '}')
}

// appendJSONFloat spells f the way encoding/json does: shortest
// round-trip digits, plain notation within [1e-6, 1e21), exponent
// notation outside it with the exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, `null`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString writes s as a JSON string literal with encoding/json's
// escapes: short forms for quote, backslash, \b, \f, \n, \r and \t,
// \u00XX for the other control bytes and for <, > and &, and \u2028
// and \u2029 for the two JavaScript line separators. s must be valid
// UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		// U+2028 and U+2029 encode as E2 80 A8 and E2 80 A9.
		sep := c == 0xE2 && i+2 < len(s) && s[i+1] == 0x80 && s[i+2]&^1 == 0xA8
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' && !sep {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		case 0xE2:
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[s[i+2]&0xF])
			i += 2
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
