//go:build !linux

package main

// fsType is unknown off Linux.
func fsType(string) string { return "unknown" }
