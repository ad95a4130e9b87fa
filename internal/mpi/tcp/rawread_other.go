//go:build !unix

package tcp

import (
	"net"
	"syscall"
)

// socketRaw is nil off unix, so a socket never reads ahead there.
func socketRaw(net.Conn) syscall.RawConn { return nil }

func sysRead(uintptr, []byte) (int, error) { return 0, syscall.EINVAL }
