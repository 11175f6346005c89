package fmcad

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The .meta codec. Reading goes through encoding/json, so a file in any
// JSON layout (including the indented one older libraries were written
// in) opens. Writing happens on every mutation, so it is hand-written:
// metaEncoder emits exactly the bytes json.Marshal would — struct fields
// in declaration order, map keys sorted, the same string escaping — with
// no reflection and no intermediate values, and re-encodes only the cells
// a mutation changed. FuzzAppendMeta holds it to encoding/json as the
// oracle.

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

// metaEncoder encodes the successive roots of one library. Published
// records are immutable, so a cell whose record is the one it encoded last
// time reuses the cached bytes: each write encodes only the cells changed
// since the previous one. The zero value is ready to use.
type metaEncoder struct {
	buf   []byte
	cells map[string]cellEnc
}

type cellEnc struct {
	c   *cellMeta
	enc []byte
}

// encode returns the compact JSON encoding of m. For metadata decodeMeta
// accepts, and everything the mutations derive from it, the result is
// byte-identical to json.Marshal(m). It is valid until the next call.
func (e *metaEncoder) encode(m *meta) []byte {
	if e.cells == nil {
		e.cells = make(map[string]cellEnc, len(m.Cells))
	}
	buf := append(e.buf[:0], `{"name":`...)
	buf = appendString(buf, m.Name)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendInt(buf, m.Seq, 10)
	buf = append(buf, `,"views":`...)
	buf = appendMap(buf, m.Views, appendString)
	buf = append(buf, `,"cells":`...)
	buf = appendObject(buf, m.Cells, func(buf []byte, name string) []byte {
		c := m.Cells[name]
		ce := e.cells[name]
		if ce.c != c {
			ce = cellEnc{c: c, enc: appendCell(ce.enc[:0], c)}
			e.cells[name] = ce
		}
		return append(buf, ce.enc...)
	})
	buf = append(buf, `,"configs":`...)
	buf = appendMap(buf, m.Configs, func(buf []byte, cfg map[string]int) []byte {
		return appendMap(buf, cfg, appendInt)
	})
	e.buf = append(buf, '}')
	return e.buf
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
	return appendObject(buf, m, func(buf []byte, k string) []byte { return val(buf, m[k]) })
}

// appendObject appends m as a JSON object with sorted keys; val appends
// the value of key k.
func appendObject[V any](buf []byte, m map[string]V, val func(buf []byte, k string) []byte) []byte {
	if m == nil {
		return append(buf, "null"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
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
