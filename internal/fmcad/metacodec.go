package fmcad

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The .meta codec. Reading goes through encoding/json, so a file in any
// JSON layout (including the indented one older libraries were written
// in) opens. Writing happens on every mutation, so it is hand-written:
// appendMeta emits exactly the bytes json.Marshal would — struct fields
// in declaration order, map keys sorted, the same string escaping — with
// no reflection and no intermediate values. FuzzAppendMeta holds it to
// encoding/json as the oracle.
//
// A journal record in .meta.log is a frame
//
//	length u32 | crc u32 | payload
//
// (little endian; crc is crc32 IEEE of the payload) whose payload is JSON
// in the .meta layout: {"seq":N,"views":{..},"cells":{..},"configs":{..}}
// holding the root's new seq and only the entries its mutation wrote,
// each whole. It is built by the same appenders and read by decodeMeta.

// decodeMeta parses and validates a .meta file. Records a later lookup or
// mutation would dereference must be present; missing top-level maps are
// normalized to empty ones.
func decodeMeta(data []byte) (*meta, error) {
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	for cell, c := range m.Cells {
		if c == nil || c.Cellviews == nil {
			return nil, fmt.Errorf("%w: cell %q has a null record", ErrCorrupt, cell)
		}
		for view, cv := range c.Cellviews {
			if cv == nil || len(cv.Versions) == 0 {
				return nil, fmt.Errorf("%w: cellview %s/%s has no versions", ErrCorrupt, cell, view)
			}
		}
	}
	for name, cfg := range m.Configs {
		if cfg == nil {
			return nil, fmt.Errorf("%w: config %q has a null record", ErrCorrupt, name)
		}
	}
	if m.Views == nil {
		m.Views = map[string]string{}
	}
	if m.Cells == nil {
		m.Cells = map[string]*cellMeta{}
	}
	if m.Configs == nil {
		m.Configs = map[string]map[string]int{}
	}
	return &m, nil
}

// recordHeaderLen is the length and checksum in front of a journal
// record's payload, and every payload starts with recordPrefix: a record
// without a seq is not one.
const (
	recordHeaderLen = 8
	recordPrefix    = `{"seq":`
)

// appendRecord appends the journal record of m, a root a mutation built
// (see meta.edits), to buf.
func appendRecord(buf []byte, m *meta) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header, filled in below
	buf = append(buf, recordPrefix...)
	buf = strconv.AppendInt(buf, m.Seq, 10)
	buf = append(buf, `,"views":`...)
	buf = appendKeys(buf, m.edits.views, func(buf []byte, k string) []byte { return appendString(buf, m.Views[k]) })
	buf = append(buf, `,"cells":`...)
	buf = appendKeys(buf, m.edits.cells, func(buf []byte, k string) []byte { return appendCell(buf, m.Cells[k]) })
	buf = append(buf, `,"configs":`...)
	buf = appendKeys(buf, m.edits.configs, func(buf []byte, k string) []byte { return appendMap(buf, m.Configs[k], appendInt) })
	buf = append(buf, '}')
	payload := buf[start+recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// replay applies the journal records at the head of log to m, a root no
// one else holds yet, and returns the length of the valid prefix. A
// record whose seq m already holds is skipped (a crash between a
// checkpoint's rename and the log's truncate leaves those); a record of
// seq m.Seq+1 is applied as an upsert. The first short frame, bad
// checksum, record decodeMeta refuses (null cell records and cellviews
// without versions included), record without a seq or seq gap ends the
// valid prefix: what follows is a torn or stale tail and is never loaded.
func replay(m *meta, log []byte) int64 {
	off := 0
	for len(log)-off >= recordHeaderLen {
		n := binary.LittleEndian.Uint32(log[off:])
		if n == 0 || uint64(n) > uint64(len(log)-off-recordHeaderLen) {
			break
		}
		payload := log[off+recordHeaderLen : off+recordHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(log[off+4:]) || !bytes.HasPrefix(payload, []byte(recordPrefix)) {
			break
		}
		rec, err := decodeMeta(payload)
		if err != nil || rec.Seq > m.Seq+1 {
			break
		}
		if rec.Seq == m.Seq+1 {
			m.Seq = rec.Seq
			maps.Copy(m.Views, rec.Views)
			maps.Copy(m.Cells, rec.Cells)
			maps.Copy(m.Configs, rec.Configs)
		}
		off += recordHeaderLen + int(n)
	}
	return int64(off)
}

// appendMeta appends the compact JSON encoding of m, a checkpoint, to
// buf. For metadata decodeMeta accepts, and everything the mutations
// derive from it, the result is byte-identical to json.Marshal(m).
func appendMeta(buf []byte, m *meta) []byte {
	buf = append(buf, `{"name":`...)
	buf = appendString(buf, m.Name)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, m.Seq, 10)
	buf = append(buf, `,"views":`...)
	buf = appendMap(buf, m.Views, appendString)
	buf = append(buf, `,"cells":`...)
	buf = appendMap(buf, m.Cells, appendCell)
	buf = append(buf, `,"configs":`...)
	buf = appendMap(buf, m.Configs, func(buf []byte, cfg map[string]int) []byte {
		return appendMap(buf, cfg, appendInt)
	})
	return append(buf, '}')
}

func appendCell(buf []byte, c *cellMeta) []byte {
	buf = append(buf, `{"cellviews":`...)
	buf = appendMap(buf, c.Cellviews, appendCellview)
	return append(buf, '}')
}

func appendCellview(buf []byte, cv *cellviewMeta) []byte {
	buf = append(buf, `{"versions":[`...)
	for i, v := range cv.Versions {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendInt(buf, v)
	}
	buf = append(buf, `],"default":`...)
	buf = appendInt(buf, cv.Default)
	if cv.LockedBy != "" {
		buf = append(buf, `,"locked_by":`...)
		buf = appendString(buf, cv.LockedBy)
	}
	if len(cv.Props) > 0 {
		buf = append(buf, `,"props":`...)
		buf = appendMap(buf, cv.Props, func(buf []byte, props map[string]string) []byte {
			return appendMap(buf, props, appendString)
		})
	}
	return append(buf, '}')
}

// appendMap appends m as a JSON object with sorted keys, encoding each
// value with val.
func appendMap[V any](buf []byte, m map[string]V, val func([]byte, V) []byte) []byte {
	if m == nil {
		return append(buf, "null"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return appendKeys(buf, keys, func(buf []byte, k string) []byte { return val(buf, m[k]) })
}

// appendKeys appends a JSON object of the given keys, in their order; val
// appends the value of key k.
func appendKeys(buf []byte, keys []string, val func(buf []byte, k string) []byte) []byte {
	buf = append(buf, '{')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendString(buf, k)
		buf = append(buf, ':')
		buf = val(buf, k)
	}
	return append(buf, '}')
}

func appendInt(buf []byte, v int) []byte { return strconv.AppendInt(buf, int64(v), 10) }

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped the way json.Marshal
// escapes it: `"` and `\`, short forms for \b \f \n \r \t, \u00XX for the
// other control bytes and for <, > and & (HTML-safe), \ufffd for each
// invalid UTF-8 byte, and \u2028 and \u2029.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			start = i + size
		} else if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
