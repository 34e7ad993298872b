// lint-fixture-as: src/serve/raw_poll_in_serve.cc
// expect-violation: raw-socket
//
// ::poll and ::accept4 are in the raw-socket rule so a polling client
// cannot wait on sockets outside the fault-injection seam (a stalled peer
// could never be simulated). The legal spellings below
// must NOT fire: the net::Poll wrapper, ::epoll_wait (the event loop's own
// mechanism, faulted at a different layer), plain ::accept (the listener
// path is exercised by killing real connections), and an identifier that
// merely ends in "poll".
#include <poll.h>
#include <sys/socket.h>

#include "util/socket_io.h"

int Legal(pollfd* fds, int epfd, int listen_fd) {
  int n = sttr::net::Poll(fds, 1, 10, nullptr);
  n += ::epoll_wait(epfd, nullptr, 0, 0);
  n += ::accept(listen_fd, nullptr, nullptr);
  n += my::poll_count();
  return n;
}

int IllegalPoll(pollfd* fds) {
  return ::poll(fds, 1, 10);
}

int IllegalAccept4(int listen_fd) {
  return ::accept4(listen_fd, nullptr, nullptr, 0);
}
