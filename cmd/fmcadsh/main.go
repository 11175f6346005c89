// Command fmcadsh is the FMCAD framework shell: it manages design
// libraries (real directories with a .meta file) and hosts the FML
// extension-language REPL. State persists in the library directory across
// invocations, like the original framework: each command's mutations go
// to the .meta.log journal (now and then folded into .meta as a
// checkpoint), and the next invocation replays it, so it sees them all.
// A checkout leaves the working copy in .workspace/USER; a later checkout
// of the same cellview overwrites it.
//
// Usage:
//
//	fmcadsh -lib DIR init NAME            # create a library
//	fmcadsh -lib DIR defview VIEW VTYPE   # declare a view
//	fmcadsh -lib DIR mkcell CELL VIEW...  # create a cell with cellviews
//	fmcadsh -lib DIR ls                   # list contents
//	fmcadsh -lib DIR -user U checkout CELL VIEW
//	fmcadsh -lib DIR -user U checkin CELL VIEW FILE
//	fmcadsh -lib DIR hier CELL VIEW       # expand the design hierarchy
//	fmcadsh -fml 'EXPR'                   # evaluate FML
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fmcad"
	"repro/internal/fml"
)

func main() {
	libDir := flag.String("lib", "", "library directory")
	user := flag.String("user", "designer", "user name for checkout/checkin")
	fmlExpr := flag.String("fml", "", "evaluate an FML expression and exit")
	flag.Parse()

	if *fmlExpr != "" {
		in := fml.NewInterp()
		in.Out = os.Stdout
		fml.NewHooks(in)
		v, err := in.Run(*fmlExpr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmcadsh: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(fml.Sprint(v))
		return
	}

	args := flag.Args()
	if *libDir == "" || len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := dispatch(*libDir, *user, args); err != nil {
		fmt.Fprintf(os.Stderr, "fmcadsh: %v\n", err)
		os.Exit(1)
	}
}

func dispatch(dir, user string, args []string) error {
	cmd, rest := args[0], args[1:]
	if cmd == "init" {
		if len(rest) != 1 {
			return fmt.Errorf("init wants a library name")
		}
		lib, err := fmcad.Create(dir, rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("created library %s at %s\n", lib.Name(), lib.Dir())
		return nil
	}
	lib, err := fmcad.Open(dir)
	if err != nil {
		return err
	}
	switch cmd {
	case "defview":
		if len(rest) != 2 {
			return fmt.Errorf("defview wants VIEW VTYPE")
		}
		return lib.DefineView(rest[0], rest[1])
	case "mkcell":
		if len(rest) < 1 {
			return fmt.Errorf("mkcell wants CELL [VIEW...]")
		}
		if err := lib.CreateCell(rest[0]); err != nil {
			return err
		}
		for _, view := range rest[1:] {
			if err := lib.CreateCellview(rest[0], view); err != nil {
				return err
			}
		}
		return nil
	case "ls":
		fmt.Printf("library %s (%s)\n", lib.Name(), lib.Dir())
		fmt.Printf("views: %v\n", lib.Views())
		for _, cell := range lib.Cells() {
			views, err := lib.Cellviews(cell)
			if err != nil {
				return err
			}
			fmt.Printf("cell %s\n", cell)
			for _, view := range views {
				versions, err := lib.Versions(cell, view)
				if err != nil {
					return err
				}
				locked, err := lib.LockedBy(cell, view)
				if err != nil {
					return err
				}
				status := ""
				if locked != "" {
					status = " [checked out by " + locked + "]"
				}
				fmt.Printf("  %s: versions %v%s\n", view, versions, status)
			}
		}
		return nil
	case "checkout":
		if len(rest) != 2 {
			return fmt.Errorf("checkout wants CELL VIEW")
		}
		session := lib.NewSession(user)
		wf, err := session.Checkout(rest[0], rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("checked out %s/%s v%d -> edit %s, then checkin\n", wf.Cell, wf.View, wf.BaseVersion, wf.Path)
		return nil
	case "checkin":
		if len(rest) != 3 {
			return fmt.Errorf("checkin wants CELL VIEW FILE")
		}
		// Rebuild the workfile handle for a fresh process: read the
		// user's edited file, place it as the working copy and check in.
		session := lib.NewSession(user)
		data, err := os.ReadFile(rest[2])
		if err != nil {
			return err
		}
		// The lock must already be held by this user from a prior
		// checkout; stage the new content through a fresh checkout if
		// free, otherwise reuse by cancel-and-retry semantics.
		if holder, err := lib.LockedBy(rest[0], rest[1]); err != nil {
			return err
		} else if holder != "" && holder != user {
			return fmt.Errorf("cellview is checked out by %s", holder)
		} else if holder == "" {
			wf, err := session.Checkout(rest[0], rest[1])
			if err != nil {
				return err
			}
			if err := os.WriteFile(wf.Path, data, 0o644); err != nil {
				return err
			}
			num, err := session.Checkin(wf)
			if err != nil {
				return err
			}
			fmt.Printf("checked in %s/%s v%d\n", rest[0], rest[1], num)
			return nil
		}
		// Holder == user from an earlier fmcadsh run: resume that
		// checkout, install the edited file as the working copy, check in.
		wf, err := session.Resume(rest[0], rest[1])
		if err != nil {
			return err
		}
		if err := os.WriteFile(wf.Path, data, 0o644); err != nil {
			return err
		}
		num, err := session.Checkin(wf)
		if err != nil {
			return err
		}
		fmt.Printf("checked in %s/%s v%d (resumed checkout)\n", rest[0], rest[1], num)
		return nil
	case "hier":
		if len(rest) != 2 {
			return fmt.Errorf("hier wants CELL VIEW")
		}
		root, err := lib.Expand(rest[0], rest[1])
		if err != nil {
			return err
		}
		printHier(root, 0)
		fmt.Printf("nodes=%d leaves=%d depth=%d\n", root.Count(), root.Leaves(), root.Depth())
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func printHier(n *fmcad.HierarchyNode, indent int) {
	for i := 0; i < indent; i++ {
		fmt.Print("  ")
	}
	label := n.InstName
	if label == "" {
		label = "(root)"
	}
	fmt.Printf("%s: %s/%s v%d\n", label, n.Cell, n.View, n.Version)
	for _, c := range n.Children {
		printHier(c, indent+1)
	}
}
