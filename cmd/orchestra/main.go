// Command orchestra runs CDSS nodes and update-store replicas, built
// entirely on the public orchestra SDK.
//
// Usage:
//
//	orchestra serve -addr 127.0.0.1:7070 [-durable DIR]     # run a store replica
//	orchestra node  -config cdss.conf -peer NAME \
//	                [-store HOST:PORT,HOST:PORT]            # interactive peer
//	                [-durable DIR]                          # ...on the durable LSM tier
//	                [-metrics-addr 127.0.0.1:6060]          # live introspection + pprof
//	orchestra epoch -addr 127.0.0.1:7070                    # print the current epoch
//	orchestra log   -addr 127.0.0.1:7070 [-since N]         # dump archived transactions
//	orchestra inspect -config cdss.conf -peer NAME \
//	                -durable DIR [-rel R]                   # dump a recovered durable peer
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux for -metrics-addr
	"os"
	"os/signal"
	"strings"

	"orchestra"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "node":
		fs := flag.NewFlagSet("node", flag.ExitOnError)
		confPath := fs.String("config", "", "CDSS configuration file")
		peerName := fs.String("peer", "", "peer to run as")
		storeAddrs := fs.String("store", "", "comma-separated store replica addresses; empty = in-process store")
		durableDir := fs.String("durable", "", "durable LSM tier directory; archive and peer checkpoints survive restarts")
		metricsAddr := fs.String("metrics-addr", "", "serve /debug/orchestra (metrics JSON + Prometheus text) and /debug/pprof/ on this address")
		_ = fs.Parse(os.Args[2:])
		if *confPath == "" || *peerName == "" {
			log.Fatal("usage: orchestra node -config FILE -peer NAME [-store ADDRS | -durable DIR]")
		}
		if *storeAddrs != "" && *durableDir != "" {
			log.Fatal("orchestra node: -store and -durable are mutually exclusive")
		}
		f, err := os.Open(*confPath)
		if err != nil {
			log.Fatal(err)
		}
		sch, err := orchestra.ParseSchema(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		opts := []orchestra.Option{}
		if *storeAddrs != "" {
			var replicas []orchestra.Store
			for _, a := range strings.Split(*storeAddrs, ",") {
				replicas = append(replicas, orchestra.DialStore(strings.TrimSpace(a)))
			}
			opts = append(opts, orchestra.WithStore(orchestra.NewReplicatedStore(replicas...)))
		}
		if *durableDir != "" {
			opts = append(opts, orchestra.WithDurableDir(*durableDir))
		}
		sys, err := orchestra.Open(sch, opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer sys.Close()
		peer, err := sys.Peer(*peerName)
		if err != nil {
			log.Fatal(err)
		}
		if *metricsAddr != "" {
			// The pprof import registered its handlers on the default mux;
			// mount the system's introspection endpoint beside them and serve
			// both from one listener.
			h := sys.DebugHandler()
			http.Handle("/debug/orchestra", h)
			http.Handle("/debug/orchestra/", h)
			ln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("metrics on http://%s/debug/orchestra (Prometheus at /debug/orchestra/metrics, pprof at /debug/pprof/)\n", ln.Addr())
			go func() {
				if err := http.Serve(ln, nil); err != nil {
					log.Printf("metrics server: %v", err)
				}
			}()
		}
		fmt.Printf("orchestra node %q ready (type help)\n", *peerName)
		if err := peer.RunREPL(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
	case "serve":
		fs := flag.NewFlagSet("serve", flag.ExitOnError)
		addr := fs.String("addr", "127.0.0.1:7070", "listen address")
		durableDir := fs.String("durable", "", "durable LSM archive directory (empty = in-memory)")
		_ = fs.Parse(os.Args[2:])
		var store orchestra.Store = orchestra.NewMemoryStore()
		if *durableDir != "" {
			dstore, err := orchestra.OpenDurableStore(*durableDir)
			if err != nil {
				log.Fatal(err)
			}
			defer dstore.Close()
			store = dstore
		}
		srv, err := orchestra.NewStoreServer(store, *addr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("orchestra update-store replica listening on %s\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		fmt.Println("shutting down")
		_ = srv.Close()
	case "epoch":
		fs := flag.NewFlagSet("epoch", flag.ExitOnError)
		addr := fs.String("addr", "127.0.0.1:7070", "store address")
		_ = fs.Parse(os.Args[2:])
		epoch, err := orchestra.DialStore(*addr).Epoch()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(epoch)
	case "log":
		fs := flag.NewFlagSet("log", flag.ExitOnError)
		addr := fs.String("addr", "127.0.0.1:7070", "store address")
		since := fs.Uint64("since", 0, "only transactions after this epoch")
		_ = fs.Parse(os.Args[2:])
		txns, epoch, err := orchestra.DialStore(*addr).Since(*since)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "epoch %d, %d transaction(s)\n", epoch, len(txns))
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		for _, t := range txns {
			if err := enc.Encode(orchestra.EncodeTxn(t)); err != nil {
				log.Fatal(err)
			}
		}
	case "inspect":
		fs := flag.NewFlagSet("inspect", flag.ExitOnError)
		confPath := fs.String("config", "", "CDSS configuration file")
		peerName := fs.String("peer", "", "peer whose durable state to dump")
		durableDir := fs.String("durable", "", "durable LSM tier directory")
		rel := fs.String("rel", "", "dump only this relation")
		_ = fs.Parse(os.Args[2:])
		if *confPath == "" || *peerName == "" || *durableDir == "" {
			log.Fatal("usage: orchestra inspect -config FILE -peer NAME -durable DIR [-rel R]")
		}
		f, err := os.Open(*confPath)
		if err != nil {
			log.Fatal(err)
		}
		sch, err := orchestra.ParseSchema(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// Opening the peer over the durable tier recovers it from its last
		// checkpoint plus the published suffix; dumping its rows shows the
		// exact state a restarted node would come back with.
		sys, err := orchestra.Open(sch, orchestra.WithDurableDir(*durableDir))
		if err != nil {
			log.Fatal(err)
		}
		peer, err := sys.Peer(*peerName)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "peer %s recovered at epoch %d\n", *peerName, peer.Epoch())
		if stats, ok, err := peer.SnapshotStats(); err != nil {
			log.Fatal(err)
		} else if ok {
			fmt.Fprintf(os.Stderr, "engine snapshot: epoch %d, %d predicate(s), %d fact(s), %d polynomial node(s), %d variable(s), %d bytes\n",
				stats.Epoch, stats.Preds, stats.Facts, stats.PolyNodes, stats.Vars, stats.Bytes)
		} else {
			fmt.Fprintln(os.Stderr, "engine snapshot: none (no checkpoint yet)")
		}
		for _, r := range peer.Relations() {
			if *rel != "" && r.Name != *rel {
				continue
			}
			rows, err := peer.Rows(r.Name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s (%d rows)\n", r.Name, len(rows))
			for _, tu := range rows {
				fmt.Printf("  %v\n", tu)
			}
		}
		if err := sys.Close(); err != nil {
			log.Fatal(err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  orchestra node  -config FILE -peer NAME [-store ADDRS | -durable DIR]  interactive CDSS peer
                  [-metrics-addr HOST:PORT]                 ...serving live metrics + pprof
  orchestra serve -addr HOST:PORT [-durable DIR]            run a store replica
  orchestra epoch -addr HOST:PORT                           print the current epoch
  orchestra log   -addr HOST:PORT [-since N]                dump archived transactions
  orchestra inspect -config FILE -peer NAME -durable DIR    dump a recovered durable peer
`)
	os.Exit(2)
}
