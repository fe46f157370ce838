package main

import (
	"fmt"
	"syscall"
)

// fsMagic names the statfs filesystem magic numbers a journal is likely
// to land on.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x794c7630: "overlayfs",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("statfs-0x%x", st.Type)
}
