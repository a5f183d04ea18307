package service

import (
	"strconv"
	"unicode/utf8"
)

// progressEncoder hand-renders the per-event NDJSON progress line of a
// streamed solve into a reusable buffer. encoding/json's Encoder walks the
// struct reflectively, which cost 2 heap allocations per event (the escaping
// event copy plus the encoder's scratch) — per step of every streamed solve.
// The
// append-based renderer reaches zero steady-state allocations (the buffer
// grows to its high-water mark on the first events and is reused for the
// rest of the stream) and is byte-for-byte identical to the encoding/json
// rendering of the equivalent streamLine, which the golden test pins.
//
// One encoder serves one stream: the buffer is reused across the stream's
// events and is not safe for concurrent use.
type progressEncoder struct {
	buf []byte
}

// encodeProgress renders {"event":"progress","job":{...}} followed by a
// newline, matching json.Encoder.Encode(streamLine{Event: "progress",
// Job: ev}) exactly, including the omitempty elision of an empty Detail.
func (e *progressEncoder) encodeProgress(ev *JobEvent) []byte {
	b := e.buf[:0]
	b = append(b, `{"event":"progress","job":{"job_id":`...)
	b = appendJSONString(b, ev.JobID)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	b = append(b, `,"event":`...)
	b = appendJSONString(b, ev.Event)
	b = append(b, `,"attempt":`...)
	b = strconv.AppendInt(b, int64(ev.Attempt), 10)
	if ev.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, ev.Detail)
	}
	b = append(b, "}}\n"...)
	e.buf = b
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal using the same
// escaping rules as encoding/json with its default HTML escaping: quote,
// backslash and control characters are escaped (\b, \f, \n, \r, \t get
// their short forms, the rest \u00XX), and '<', '>', '&' get \u00XX
// escapes too, so the stream stays safe to embed. Valid non-ASCII UTF-8
// passes through unchanged, except the JavaScript line terminators U+2028
// and U+2029, which get \u20XX escapes; each byte of an invalid UTF-8
// sequence becomes the escaped replacement character U+FFFD, so every
// line is valid JSON.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			case r == 0x2028 || r == 0x2029:
				b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			default:
				b = append(b, s[i:i+size]...)
			}
			i += size - 1
			continue
		}
		switch {
		case c == '"':
			b = append(b, '\\', '"')
		case c == '\\':
			b = append(b, '\\', '\\')
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\b':
			b = append(b, '\\', 'b')
		case c == '\f':
			b = append(b, '\\', 'f')
		case c == '<':
			b = append(b, '\\', 'u', '0', '0', '3', 'c')
		case c == '>':
			b = append(b, '\\', 'u', '0', '0', '3', 'e')
		case c == '&':
			b = append(b, '\\', 'u', '0', '0', '2', '6')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			b = append(b, c)
		}
	}
	b = append(b, '"')
	return b
}
