// Isolated kernels of the traced run: one public function per layer, timed
// alone at frame sizes of 64, 128 and 256 bytes. Each value is the median
// of 7 batches; a batch repeats the call until at least 20 ms have passed.

#include <functional>

#include "bench.hpp"
#include "dlink/frame.hpp"
#include "net/channel.hpp"
#include "sim/scheduler.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "wire/wire.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSizes[] = {64, 128, 256};
constexpr int kBatches = 7;
constexpr std::uint64_t kBatchNs = 20'000'000;

/// Keeps results observable so the timed calls are not optimized away.
volatile std::uint64_t g_sink = 0;

ssr::wire::Bytes random_bytes(std::size_t n, ssr::Rng& rng) {
  ssr::wire::Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

/// Median over batches of the nanoseconds one call of `fn` takes.
double time_call(const std::function<void()>& fn) {
  for (int i = 0; i < 1000; ++i) fn();  // warm caches and pools
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t calls = 0;
    const std::uint64_t t0 = wall_ns();
    std::uint64_t t1 = t0;
    while (t1 - t0 < kBatchNs) {
      for (int i = 0; i < 256; ++i) fn();
      calls += 256;
      t1 = wall_ns();
    }
    per_call.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(calls));
  }
  return median(per_call);
}

std::string sized(const char* name, std::size_t size) {
  return std::string(name) + "_" + std::to_string(size) + "b";
}

}  // namespace

void run_kernels(Report& r) {
  ssr::Rng rng(0x6B45ULL);
  for (std::size_t size : kSizes) {
    const ssr::wire::Bytes data = random_bytes(size, rng);

    const double fnv = time_call([&] {
      g_sink = g_sink + ssr::wire::fnv1a32(data.data(), data.size());
    });
    r.add(sized("wire.fnv1a32_ns_per_byte", size),
          fnv / static_cast<double>(size), "ns/B");

    const double enc = time_call([&] {
      ssr::wire::Writer w;
      w.reserve(size);
      for (std::size_t i = 0; i + 8 <= size - 4; i += 8) w.u64(i);
      w.seal();
      ssr::wire::Bytes out = w.take();
      g_sink = g_sink + out.size();
      ssr::wire::BufferPool::local().release(std::move(out));
    });
    r.add(sized("wire.writer_encode_ns", size), enc, "ns");

    // Channel::send through to delivery: a lossless channel on a private
    // scheduler, one send and one delivery step per call.
    {
      ssr::sim::Scheduler sched;
      ssr::net::ChannelConfig cfg;
      cfg.loss_probability = 0;
      cfg.duplicate_probability = 0;
      cfg.capacity = 64;
      std::uint64_t delivered = 0;
      ssr::net::Channel ch(sched, ssr::Rng(7), cfg, 1, 2,
                           [&](ssr::net::Packet&) { ++delivered; });
      const double send = time_call([&] {
        ssr::wire::Bytes p = ssr::wire::BufferPool::local().acquire();
        p.assign(data.begin(), data.end());
        ch.send(std::move(p));
        sched.step(sched.now() + 10 * ssr::kSec);
      });
      g_sink = g_sink + delivered;
      r.add(sized("net.send_ns", size), send, "ns");
    }

    ssr::dlink::Frame frame;
    frame.kind = ssr::dlink::FrameKind::kData;
    frame.link_sender = 3;
    frame.label = 5;
    frame.payload = random_bytes(size, rng);
    const ssr::wire::Bytes raw = frame.encode();
    const double fdec = time_call([&] {
      auto f = ssr::dlink::Frame::decode(raw);
      g_sink = g_sink + (f ? f->payload.size() : 0);
      if (f) ssr::wire::BufferPool::local().release(std::move(f->payload));
    });
    r.add(sized("dlink.frame_decode_ns", size), fdec, "ns");

    // A bundle of state items filling `size` bytes (4 items, the per-frame
    // datagram cap of the default MuxConfig).
    std::vector<ssr::dlink::BundleItem> items(4);
    for (std::size_t i = 0; i < items.size(); ++i) {
      items[i].port = static_cast<ssr::dlink::Port>(1 + i);
      items[i].is_state = true;
      items[i].data = random_bytes(size / items.size() - 4, rng);
    }
    const ssr::wire::Bytes bundle = ssr::dlink::encode_bundle(items);
    std::vector<ssr::dlink::BundleItem> out;
    const double bdec = time_call([&] {
      const bool ok = ssr::dlink::decode_bundle(bundle, out);
      g_sink = g_sink + (ok ? out.size() : 0);
    });
    r.add(sized("dlink.bundle_decode_ns", size), bdec, "ns");
  }
}

}  // namespace perfbench
