// dramhit-server serves the DRAMHiT table over TCP, speaking RESP
// (GET/SET/DEL/INCR/PING — redis-cli and any RESP client work) and the
// memcached text protocol (get/gets/set/delete/incr/decr, noreply) on
// separate listeners against one shared keyspace.
//
// Each connection is a goroutine that owns only its socket and buffers; the
// pipelined requests it has read resolve under one prefetch window of a table
// handle borrowed from a pool of a few per CPU, so wire batching composes with
// DRAMHiT's memory-level batching.
//
// Usage:
//
//	dramhit-server -resp :6379 -mc :11211 -obs :8090
//	redis-cli -p 6379 SET greeting hello
//	printf 'get greeting\r\n' | nc localhost 11211
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dramhit/internal/kvserver"
	"dramhit/internal/obs"
)

func main() {
	var (
		respAddr = flag.String("resp", ":6379", "RESP listener address; empty disables")
		mcAddr   = flag.String("mc", "", "memcached text listener address; empty disables")
		slots    = flag.Uint64("slots", 1<<20, "initial table slots (bucket layout resizes itself)")
		obsAddr  = flag.String("obs", "", "observability HTTP address (/metrics etc.); empty disables")
	)
	flag.Parse()

	cfg := kvserver.Config{RespAddr: *respAddr, McAddr: *mcAddr, Slots: *slots}
	if *obsAddr != "" {
		cfg.Obs = obs.New()
	}
	srv, err := kvserver.New(cfg)
	if err != nil {
		fail(err)
	}
	if cfg.Obs != nil {
		osrv, err := obs.Serve(*obsAddr, cfg.Obs)
		if err != nil {
			srv.Close()
			fail(err)
		}
		defer osrv.Close()
		fmt.Printf("observability on http://%s/metrics\n", osrv.Addr)
	}
	if a := srv.RespAddr(); a != "" {
		fmt.Printf("resp listening on %s\n", a)
	}
	if a := srv.McAddr(); a != "" {
		fmt.Printf("memcached listening on %s\n", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	srv.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dramhit-server:", err)
	os.Exit(1)
}
