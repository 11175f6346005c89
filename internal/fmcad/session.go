package fmcad

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Session is one designer's connection to a library. It holds a snapshot
// of the library metadata taken at open (or the last Refresh): the root
// published then, whose records it shares with the library and with every
// other snapshot, since published records are never written.
// The paper: "The refreshment of the metadata objects is not performed
// automatically, and therefore, it is the responsibility of the designer to
// keep his design up to date. Of course, this aspect may cause severe
// locking problems during the design process." (section 2.2)
//
// Reads answer from the stale snapshot; writes go to the authoritative
// library and can fail with ErrLocked when another designer holds the
// checkout — conflicts the designer could not see coming because their
// snapshot was stale.
type Session struct {
	lib  *Library
	user string
	snap *meta // possibly stale; read-only
}

// NewSession opens a session for user, snapshotting the current metadata.
func (l *Library) NewSession(user string) *Session {
	return &Session{lib: l, user: user, snap: l.snapshot()}
}

// User returns the session owner.
func (s *Session) User() string { return s.user }

// Library returns the underlying library.
func (s *Session) Library() *Library { return s.lib }

// Refresh re-reads the library metadata — the manual step FMCAD requires.
func (s *Session) Refresh() { s.snap = s.lib.snapshot() }

// Stale reports whether the library has changed since the last Refresh.
func (s *Session) Stale() bool { return s.snap.Seq != s.lib.Seq() }

// --- stale reads -----------------------------------------------------------

// VersionsSeen returns the versions of a cellview as of the last Refresh.
// This may omit versions created by other users since then.
func (s *Session) VersionsSeen(cell, view string) ([]int, error) {
	cv, err := s.snap.cellview(cell, view)
	if err != nil {
		return nil, err
	}
	return append([]int(nil), cv.Versions...), nil
}

// DefaultVersionSeen returns the default version as of the last Refresh.
func (s *Session) DefaultVersionSeen(cell, view string) (int, error) {
	cv, err := s.snap.cellview(cell, view)
	if err != nil {
		return 0, err
	}
	return cv.Default, nil
}

// LockedSeen reports the checkout holder as of the last Refresh — possibly
// wrong, which is how designers run into surprise conflicts.
func (s *Session) LockedSeen(cell, view string) (string, error) {
	cv, err := s.snap.cellview(cell, view)
	if err != nil {
		return "", err
	}
	return cv.LockedBy, nil
}

// CellsSeen lists cells as of the last Refresh.
func (s *Session) CellsSeen() []string {
	out := make([]string, 0, len(s.snap.Cells))
	for c := range s.snap.Cells {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// --- checkout / checkin ----------------------------------------------------

// Workfile is a checked-out cellview: a private working copy of the design
// file that Checkin will turn into the next version. The file outlives the
// checkout: Checkin and Cancel leave it, and the user's next Checkout of
// the cellview overwrites it, so checkouts after the first create no file.
type Workfile struct {
	Cell, View string
	// BaseVersion is the version the checkout copied from.
	BaseVersion int
	// Path is the user's editable working copy.
	Path string
	// Props are properties of the version Checkin creates; the checkin
	// writes them in its own metadata commit.
	Props map[string]string

	session *Session
	done    bool
}

// workPath returns the per-user working-copy location.
func (s *Session) workPath(cell, view string) string {
	return filepath.Join(s.lib.dir, ".workspace", s.user, cell+"__"+view+".cv")
}

// Checkout acquires the cellview for this user and stages a working copy of
// the default version, overwriting the one an earlier checkout left. It
// fails with ErrLocked if any other user holds the checkout. Checking out
// a cellview you already hold is an error too (one working copy at a
// time). If the working copy cannot be staged, the checkout is released
// again.
func (s *Session) Checkout(cell, view string) (*Workfile, error) {
	var base int
	err := s.lib.mutate(func(m *meta) error {
		cv, err := m.cellview(cell, view)
		if err != nil {
			return err
		}
		if cv.LockedBy != "" {
			s.lib.statConflicts++
			return fmt.Errorf("%w (%s/%s held by %s, wanted by %s)", ErrLocked, cell, view, cv.LockedBy, s.user)
		}
		m.editCellview(cell, view).LockedBy = s.user
		base = cv.Default
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Stage the working copy from the base version file.
	wp := s.workPath(cell, view)
	data, err := os.ReadFile(s.lib.versionPath(cell, view, base))
	if err == nil {
		err = writeDesignFile(wp, data)
	}
	if err != nil {
		// Without a Workfile the caller cannot Cancel, so release here.
		return nil, errors.Join(fmt.Errorf("fmcad: checkout stage: %w", err), s.release(cell, view))
	}
	return &Workfile{Cell: cell, View: view, BaseVersion: base, Path: wp, session: s}, nil
}

// Resume rebuilds the Workfile handle for a checkout this user already
// holds — the case of a designer returning in a fresh shell session. The
// working copy in .workspace is left as the user last wrote it.
func (s *Session) Resume(cell, view string) (*Workfile, error) {
	holder, err := s.lib.LockedBy(cell, view)
	if err != nil {
		return nil, err
	}
	if holder != s.user {
		return nil, fmt.Errorf("%w (%s/%s, lock holder %q)", ErrNotLocked, cell, view, holder)
	}
	wp := s.workPath(cell, view)
	if _, err := os.Stat(wp); err != nil {
		return nil, fmt.Errorf("fmcad: resume: working copy missing: %w", err)
	}
	def, err := s.lib.DefaultVersion(cell, view)
	if err != nil {
		return nil, err
	}
	return &Workfile{Cell: cell, View: view, BaseVersion: def, Path: wp, session: s}, nil
}

// Checkin turns the working copy into the next cellview version, makes it
// the default, sets the workfile's Props on it, and releases the lock, in
// one metadata commit. Returns the new version number.
//
// The next version number cannot change while this user holds the
// checkout, so the version file is written first and the metadata commit
// follows: if either step fails, the metadata is unchanged and the
// checkout is still held.
func (s *Session) Checkin(wf *Workfile) (int, error) {
	if wf == nil || wf.session != s {
		return 0, fmt.Errorf("fmcad: checkin of foreign workfile")
	}
	if wf.done {
		return 0, fmt.Errorf("fmcad: workfile already checked in or cancelled")
	}
	data, err := os.ReadFile(wf.Path)
	if err != nil {
		return 0, fmt.Errorf("fmcad: checkin: %w", err)
	}
	newVersion, err := s.lib.nextVersion(wf.Cell, wf.View, s.user)
	if err != nil {
		return 0, err
	}
	dst := s.lib.versionPath(wf.Cell, wf.View, newVersion)
	if err := writeDesignFile(dst, data); err != nil {
		return 0, fmt.Errorf("fmcad: checkin: %w", err)
	}
	err = s.lib.mutate(func(m *meta) error {
		if _, err := m.heldBy(wf.Cell, wf.View, s.user); err != nil {
			return err
		}
		cv := m.editCellview(wf.Cell, wf.View)
		cv.Versions = append(cv.Versions, newVersion)
		cv.Default = newVersion
		cv.LockedBy = ""
		names := make([]string, 0, len(wf.Props))
		for name := range wf.Props {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m.setProperty(wf.Cell, wf.View, newVersion, name, wf.Props[name])
		}
		return nil
	})
	if err != nil {
		_ = os.Remove(dst) //lint:allow noerrdrop no metadata names the file; a leftover is overwritten by the next checkin
		return 0, err
	}
	wf.done = true
	return newVersion, nil
}

// Cancel abandons a checkout, releasing the lock without creating a
// version.
func (s *Session) Cancel(wf *Workfile) error {
	if wf == nil || wf.session != s {
		return fmt.Errorf("fmcad: cancel of foreign workfile")
	}
	if wf.done {
		return fmt.Errorf("fmcad: workfile already checked in or cancelled")
	}
	if err := s.release(wf.Cell, wf.View); err != nil {
		return err
	}
	wf.done = true
	return nil
}

// release frees this user's checkout of a cellview.
func (s *Session) release(cell, view string) error {
	return s.lib.mutate(func(m *meta) error {
		if _, err := m.heldBy(cell, view, s.user); err != nil {
			return err
		}
		m.editCellview(cell, view).LockedBy = ""
		return nil
	})
}

// heldBy returns the record of a cellview user has checked out.
func (m *meta) heldBy(cell, view, user string) (*cellviewMeta, error) {
	cv, err := m.cellview(cell, view)
	if err != nil {
		return nil, err
	}
	if cv.LockedBy != user {
		return nil, fmt.Errorf("%w (%s/%s, lock holder %q)", ErrNotLocked, cell, view, cv.LockedBy)
	}
	return cv, nil
}

// nextVersion returns the number the next checkin of a cellview user has
// checked out will create.
func (l *Library) nextVersion(cell, view, user string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cv, err := l.meta.heldBy(cell, view, user)
	if err != nil {
		return 0, err
	}
	return cv.Versions[len(cv.Versions)-1] + 1, nil
}
