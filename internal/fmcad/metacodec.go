package fmcad

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
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
// in the .meta layout, built by the same appenders:
//
//	{"seq":N,"views":{..},"cells":{..},"configs":{..}}
//
// It holds the root's new seq and what its mutation wrote: the views and
// configs it set and the cells it created, each whole, and under "cells"
// an entry {"edits":{VIEW:{..}}} per cell whose cellviews it edited. An
// edit holds the versions appended, the default, the lock (always
// written, so an unlock replays) and the properties set; a cellview the
// record creates is an edit of all its versions. A whole cell entry
// replaces the cell, which is also how records written before cellview
// edits existed replay. A build that reads records only in that older
// form takes an edit entry, which has no "cellviews", for a null cell
// record and stops there, so it never applies part of a record.
//
// The first frame after a checkpoint is a header, {"seq":S,"meta_crc":C},
// written in the same append as the first record: S and C are the seq and
// the crc32 IEEE of the .meta it follows. Replay skips it like any record
// of a seq the checkpoint holds, after checking that it names the .meta
// at hand.

// decodeMeta parses and validates a .meta file. Records a later lookup or
// mutation would dereference must be present; missing top-level maps are
// normalized to empty ones.
func decodeMeta(data []byte) (*meta, error) {
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	var err error
	m.Cells.all(func(cell string, c *cellMeta) bool {
		if c == nil || c.Cellviews == nil {
			err = fmt.Errorf("%w: cell %q has a null record", ErrCorrupt, cell)
		} else if view, bad := badCellview(c.Cellviews); bad {
			err = fmt.Errorf("%w: cellview %s/%s has no versions", ErrCorrupt, cell, view)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	for name, cfg := range m.Configs {
		if cfg == nil {
			return nil, fmt.Errorf("%w: config %q has a null record", ErrCorrupt, name)
		}
	}
	if m.Views == nil {
		m.Views = map[string]string{}
	}
	if m.Configs == nil {
		m.Configs = map[string]map[string]int{}
	}
	return &m, nil
}

// badCellview returns a view of cvs whose record is null or has no
// versions.
func badCellview(cvs map[string]*cellviewMeta) (string, bool) {
	for view, cv := range cvs {
		if cv == nil || len(cv.Versions) == 0 {
			return view, true
		}
	}
	return "", false
}

// recordHeaderLen is the length and checksum in front of a journal
// record's payload, and every payload starts with recordPrefix: a record
// without a seq is not one.
const (
	recordHeaderLen = 8
	recordPrefix    = `{"seq":`
)

// appendHeader appends the journal header naming the checkpoint of the
// given seq and .meta checksum to buf.
func appendHeader(buf []byte, seq int64, metaCRC uint32) []byte {
	buf, start := beginFrame(buf)
	buf = strconv.AppendInt(buf, seq, 10)
	buf = append(buf, `,"meta_crc":`...)
	buf = strconv.AppendUint(buf, uint64(metaCRC), 10)
	return endFrame(append(buf, '}'), start)
}

// appendRecord appends the journal record of m, a root a mutation built
// (see meta.edits), to buf.
func appendRecord(buf []byte, m *meta) []byte {
	buf, start := beginFrame(buf)
	buf = strconv.AppendInt(buf, m.Seq, 10)
	buf = append(buf, `,"views":`...)
	buf = appendKeys(buf, m.edits.views, func(buf []byte, k string) []byte { return appendString(buf, m.Views[k]) })
	// A created cell is written whole, its cellviews included; any other
	// cell as the edits of its cellviews.
	cells := slices.Clip(m.edits.cells)
	for _, e := range m.edits.cellviews {
		cells = addKey(cells, e.cell)
	}
	buf = append(buf, `,"cells":`...)
	buf = appendKeys(buf, cells, func(buf []byte, cell string) []byte {
		c, _ := m.Cells.get(cell)
		if slices.Contains(m.edits.cells, cell) {
			return appendCell(buf, c)
		}
		var views []string
		for _, e := range m.edits.cellviews {
			if e.cell == cell {
				views = append(views, e.view)
			}
		}
		buf = append(buf, `{"edits":`...)
		buf = appendKeys(buf, views, func(buf []byte, view string) []byte {
			return appendCellviewEdit(buf, c.Cellviews[view], m.edits.cellview(cell, view))
		})
		return append(buf, '}')
	})
	buf = append(buf, `,"configs":`...)
	buf = appendKeys(buf, m.edits.configs, func(buf []byte, k string) []byte { return appendMap(buf, m.Configs[k], appendInt) })
	return endFrame(append(buf, '}'), start)
}

// appendCellviewEdit appends the edit e of the cellview record cv.
func appendCellviewEdit(buf []byte, cv *cellviewMeta, e *cellviewEdit) []byte {
	buf = append(buf, `{"versions":[`...)
	for i, v := range cv.Versions[e.versions:] {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendInt(buf, v)
	}
	buf = append(buf, `],"default":`...)
	buf = appendInt(buf, cv.Default)
	buf = append(buf, `,"locked_by":`...)
	buf = appendString(buf, cv.LockedBy)
	if len(e.props) > 0 {
		var versions []string
		for _, p := range e.props {
			versions = addKey(versions, p.version)
		}
		buf = append(buf, `,"props":`...)
		buf = appendKeys(buf, versions, func(buf []byte, k string) []byte {
			var names []string
			for _, p := range e.props {
				if p.version == k {
					names = append(names, p.name)
				}
			}
			props, _ := cv.Props.get(k)
			return appendKeys(buf, names, func(buf []byte, name string) []byte { return appendString(buf, props[name]) })
		})
	}
	return append(buf, '}')
}

// beginFrame appends a frame's header, to be filled in by endFrame, and
// the record prefix to buf; start is where the frame begins.
func beginFrame(buf []byte) (_ []byte, start int) {
	start = len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return append(buf, recordPrefix...), start
}

// endFrame fills in the header of the frame at start, whose payload runs
// to the end of buf.
func endFrame(buf []byte, start int) []byte {
	payload := buf[start+recordHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// record is a decoded journal record (see the format above).
type record struct {
	Seq     int64                     `json:"seq"`
	MetaCRC *uint32                   `json:"meta_crc"` // set in a header only
	Views   map[string]string         `json:"views"`
	Cells   map[string]*cellRecord    `json:"cells"`
	Configs map[string]map[string]int `json:"configs"`
}

// cellRecord is a cell entry of a record: the whole cell, or edits of
// its cellviews.
type cellRecord struct {
	Cellviews map[string]*cellviewMeta `json:"cellviews"`
	Edits     map[string]*cellviewMeta `json:"edits"`
}

// appliesTo reports whether rec can be applied to m whole: it has no null
// entry, each cell entry is whole or edits, a whole cell has a record
// with versions for each cellview, and an edited cell exists in m with
// each version appended above the cellview's last one, a new cellview
// getting at least one.
func (rec *record) appliesTo(m *meta) bool {
	for cell, c := range rec.Cells {
		if c == nil || (c.Cellviews == nil) == (c.Edits == nil) {
			return false
		}
		if c.Cellviews != nil {
			if _, bad := badCellview(c.Cellviews); bad {
				return false
			}
			continue
		}
		cur, ok := m.Cells.get(cell)
		if !ok {
			return false
		}
		for view, e := range c.Edits {
			if e == nil {
				return false
			}
			last := math.MinInt
			if cv, ok := cur.Cellviews[view]; ok {
				last = cv.Versions[len(cv.Versions)-1]
			} else if len(e.Versions) == 0 {
				return false
			}
			for _, v := range e.Versions {
				if v <= last {
					return false
				}
				last = v
			}
		}
	}
	for _, cfg := range rec.Configs {
		if cfg == nil {
			return false
		}
	}
	return true
}

// apply applies rec, which appliesTo m, to m, a root no one else holds:
// it writes m's maps and records in place.
func (rec *record) apply(m *meta) {
	m.Seq = rec.Seq
	maps.Copy(m.Views, rec.Views)
	for cell, c := range rec.Cells {
		if c.Cellviews != nil {
			m.Cells = m.Cells.set(cell, &cellMeta{Cellviews: c.Cellviews})
			continue
		}
		cur, _ := m.Cells.get(cell)
		for view, e := range c.Edits {
			cv, ok := cur.Cellviews[view]
			if !ok {
				cur.Cellviews[view] = e
				continue
			}
			cv.Versions = append(cv.Versions, e.Versions...)
			cv.Default, cv.LockedBy = e.Default, e.LockedBy
			e.Props.all(func(k string, props map[string]string) bool {
				merged, _ := cv.Props.get(k)
				if merged == nil {
					merged = map[string]string{}
				}
				maps.Copy(merged, props)
				cv.Props = cv.Props.set(k, merged)
				return true
			})
		}
	}
	maps.Copy(m.Configs, rec.Configs)
}

// replay applies the journal records at the head of log to m, a root no
// one else holds yet, decoded from a .meta whose crc32 is metaCRC, and
// returns the length of the valid prefix. A journal whose header names
// another .meta has none. A record whose seq m already holds is skipped
// (a crash between a checkpoint's rename and the log's truncate leaves
// those); a record of seq m.Seq+1 is checked against m and applied whole.
// The first short frame, bad checksum, record without a seq, record
// appliesTo refuses, header past the head or seq gap ends the valid
// prefix: what follows is a torn or stale tail and is never loaded.
func replay(m *meta, log []byte, metaCRC uint32) int64 {
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
		var rec record
		if json.Unmarshal(payload, &rec) != nil || rec.Seq > m.Seq+1 {
			break
		}
		if rec.MetaCRC != nil && (off > 0 || rec.Seq != m.Seq || *rec.MetaCRC != metaCRC) {
			break
		}
		if rec.Seq == m.Seq+1 {
			if !rec.appliesTo(m) {
				break
			}
			rec.apply(m)
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
	buf = appendPmap(buf, m.Cells, appendCell)
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
		buf = appendPmap(buf, cv.Props, func(buf []byte, props map[string]string) []byte {
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

// appendPmap appends p as a JSON object, its keys in order, encoding each
// value with val.
func appendPmap[V any](buf []byte, p pmap[V], val func([]byte, V) []byte) []byte {
	buf = append(buf, '{')
	first := true
	p.all(func(k string, v V) bool {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = appendString(buf, k)
		buf = append(buf, ':')
		buf = val(buf, v)
		return true
	})
	return append(buf, '}')
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
