"""FTP-style file transfer app (paper §2.0).

"For example, an FTP client connecting to an FTP server could
automatically trigger netstat and vmstat monitoring on both the client
and server for the duration of the connection.  Application activity
is detected by a port monitor agent running on the client and server
hosts, which monitors traffic on a configurable set of ports."

This is the port-monitor trigger workload (experiment E5): sessions
open a control connection on the well-known port, move data, and go
quiet; the port monitor should run the on-demand sensors only while a
session is active.
"""

from __future__ import annotations

from ..simgrid.host import Host
from ..simgrid.world import GridWorld

__all__ = ["FTPServer", "ftp_transfer", "FTP_CONTROL_PORT", "FTP_DATA_PORT"]

FTP_CONTROL_PORT = 21
FTP_DATA_PORT = 20



class FTPServer:
    """Binds the FTP control port and answers session commands."""

    def __init__(self, world: GridWorld, host: Host):
        self.world = world
        self.host = host
        self.sessions_served = 0
        host.ports.bind(FTP_CONTROL_PORT, self._handle)
        host.register_service("ftpd", self)

    def _handle(self, msg, transport) -> None:
        command = msg.payload.get("cmd")
        if command == "RETR":
            self.sessions_served += 1
            transport.reply(msg, {"status": 150, "size": msg.payload.get("size")})
        elif command == "QUIT":
            transport.reply(msg, {"status": 221})
        else:
            transport.reply(msg, {"status": 502, "error": f"bad cmd {command!r}"})


def ftp_transfer(world: GridWorld, client: Host, server: Host, *,
                 nbytes: int, rwnd_bytes: int = 1 << 20):
    """One FTP session: control handshake, data transfer, quit.

    Returns the kernel process; its ``done`` flag triggers with the
    transfer's :class:`~repro.simgrid.tcp.TCPStats` (or None on a
    control-channel failure).
    """

    def session():
        # control: RETR command to the well-known port (port monitor food)
        reply = yield world.transport.request(
            client, server, FTP_CONTROL_PORT,
            {"cmd": "RETR", "size": nbytes}, size_bytes=128)
        if isinstance(reply, Exception) or not isinstance(reply, dict) \
                or reply.get("status") != 150:
            return None
        # data connection: server pushes the file to the client
        flow = world.tcp_flow(server, client, dst_port=FTP_DATA_PORT,
                              rng_name=f"ftp:{world.sim.serial('ftp-xfer')}",
                              rwnd_bytes=rwnd_bytes)
        flow.transfer(nbytes)
        stats = yield flow.done
        # polite QUIT on the control channel
        yield world.transport.request(client, server, FTP_CONTROL_PORT,
                                      {"cmd": "QUIT"}, size_bytes=64)
        return stats

    return world.sim.spawn(session(), name=f"ftp:{client.name}->{server.name}")
