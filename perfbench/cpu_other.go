//go:build !linux

package main

// threadCPU is unavailable off Linux; CPU self times then read zero.
func threadCPU() int64 { return 0 }
