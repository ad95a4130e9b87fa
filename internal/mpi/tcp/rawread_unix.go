//go:build unix

package tcp

import (
	"net"
	"syscall"
)

// socketRaw returns a socket's raw descriptor access, nil if it has none.
func socketRaw(conn net.Conn) syscall.RawConn {
	raw, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

func sysRead(fd uintptr, p []byte) (int, error) { return syscall.Read(int(fd), p) }
