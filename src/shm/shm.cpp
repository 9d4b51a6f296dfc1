#include "shm/shm.hpp"

namespace hmca::shm {

sim::Task<void> ShmRegion::copy_in_publish(int rank, hw::BufView src,
                                           std::size_t offset, int src_owner) {
  auto& eng = cl_->engine();
  auto span = sink_->open(rank, trace::Kind::kCopyIn, eng.now(), -1, src.len);
  sink_->count("shm.copy_bytes", static_cast<double>(src.len),
               {{"dir", "in"}});
  co_await eng.sleep(cl_->spec().shm_copy_startup);
  co_await cl_->cpu_copy_between(
      rank, src_owner >= 0 ? src_owner : home_rank_,
      static_cast<double>(src.len));
  hw::copy_payload(store_.slice(offset, src.len), src);
  span.close(eng.now());
  publish(offset, src.len);
}

sim::Task<void> ShmRegion::copy_out(int rank, std::size_t i, hw::BufView dst) {
  const Chunk c = chunk(i);
  if (c.len != dst.len) {
    throw std::invalid_argument("ShmRegion::copy_out: size mismatch");
  }
  auto& eng = cl_->engine();
  auto span = sink_->open(rank, trace::Kind::kCopyOut, eng.now(), -1, c.len);
  sink_->count("shm.copy_bytes", static_cast<double>(c.len),
               {{"dir", "out"}});
  co_await eng.sleep(cl_->spec().shm_copy_startup);
  co_await cl_->cpu_copy_between(rank, home_rank_, static_cast<double>(c.len));
  hw::copy_payload(dst, store_.slice(c.offset, c.len));
  span.close(eng.now());
}

sim::Task<void> copy_out_published(std::shared_ptr<ShmRegion> region,
                                   int grank, std::size_t i,
                                   hw::BufView recv) {
  const auto c = region->chunk(i);
  if (c.len > 0) {
    co_await region->copy_out(grank, i, recv.sub(c.offset, c.len));
  }
}

}  // namespace hmca::shm
