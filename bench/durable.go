package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"orchestra"
)

// statDir records the size of every regular file under dir, relative path
// -> bytes, as os.Stat reports it now.
func statDir(dir string) (map[string]int64, error) {
	sizes := map[string]int64{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			sizes[rel] = fi.Size()
		}
		return nil
	})
	return sizes, err
}

// killCopy reproduces in dst what a crash would have left of src: only the
// files that existed when sizes was recorded, each cut to the size recorded
// then. Whatever the process wrote after that — bytes no acknowledged
// operation flushed — is discarded by the test itself, since killing a
// process alone leaves the operating system's cache intact.
func killCopy(src, dst string, sizes map[string]int64) error {
	for rel, size := range sizes {
		to := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			return err
		}
		if err := copyPrefix(filepath.Join(src, rel), to, size); err != nil {
			return err
		}
	}
	return nil
}

func copyPrefix(from, to string, size int64) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, size); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", from, err)
	}
	return out.Close()
}

// killAndRecover kills the measured system (it is never closed before the
// copies are made), recovers recoverCopies truncated copies of its
// directory, and checks each against the never-killed twin: every
// acknowledged transaction is in the reopened archive and every recovered
// peer equals the live one, rows and provenance.
func killAndRecover(o *runOut) error {
	sizes, err := statDir(o.dir)
	if err != nil {
		return err
	}
	for _, n := range sizes {
		o.storedBytes += n
	}
	acked, _, err := o.env.store.Since(0)
	if err != nil {
		return err
	}
	live := digestPeers(o.plan, o.env)
	for i := 0; i < recoverCopies; i++ {
		dst, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), "kill-")
		if err != nil {
			return err
		}
		if err := killCopy(o.dir, dst, sizes); err != nil {
			os.RemoveAll(dst)
			return err
		}
		err = recoverCopy(o, dst, acked, live, i == recoverCopies-1)
		os.RemoveAll(dst)
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverCopy opens a killed copy, brings every peer back, and verifies it.
// recover_s runs from the open to the last peer answering Rows.
func recoverCopy(o *runOut, dir string, acked []*orchestra.Transaction, live map[string]string, last bool) error {
	tr := o.tr
	tr.beginOp()
	root := tr.start("recover", "root")
	t0 := time.Now()
	id := tr.start("Open+Peer", "core")
	var e *env
	var err error
	if tr != nil {
		e, err = openCoreDurable(o.plan, dir, tr)
	} else {
		e, err = openSDK(o.plan, dir, nil)
	}
	tr.end(id)
	o.attempted++
	if err != nil {
		tr.end(root)
		o.fail("recover: %v", err)
		return nil
	}
	for _, n := range o.plan.names {
		for _, rel := range e.peers[n].Relations() {
			if _, err := e.peers[n].Rows(rel.Name); err != nil {
				o.fail("recovered %s.%s: %v", n, rel.Name, err)
			}
		}
	}
	o.recoverS = append(o.recoverS, time.Since(t0).Seconds())
	tr.end(root)
	if last && e.metrics != nil {
		o.recover = e.metrics()
	}

	o.attempted++
	got, _, err := e.store.Since(0)
	if err != nil {
		o.fail("reopened Since(0): %v", err)
	} else {
		have := map[orchestra.TxnID]bool{}
		for _, t := range got {
			have[t.ID] = true
		}
		for _, t := range acked {
			if !have[t.ID] {
				o.fail("acknowledged transaction %s missing after recovery", t.ID)
				break
			}
		}
	}
	for n, d := range digestPeers(o.plan, e) {
		o.attempted++
		if d != live[n] {
			o.fail("recovered peer %s differs from its never-killed twin", n)
		}
	}
	return e.close()
}
