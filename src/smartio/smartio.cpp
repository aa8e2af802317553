#include "smartio/smartio.hpp"

#include <utility>

#include "common/log.hpp"
#include "fabric/endpoint.hpp"

namespace nvmeshare::smartio {

// --- DeviceRef -----------------------------------------------------------------

DeviceRef::DeviceRef(DeviceRef&& other) noexcept { *this = std::move(other); }

DeviceRef& DeviceRef::operator=(DeviceRef&& other) noexcept {
  if (this != &other) {
    release();
    service_ = std::exchange(other.service_, nullptr);
    id_ = other.id_;
    mode_ = other.mode_;
  }
  return *this;
}

DeviceRef::~DeviceRef() { release(); }

void DeviceRef::release() {
  if (service_ == nullptr) return;
  service_->release_ref(id_, mode_);
  service_ = nullptr;
}

Result<DeviceInfo> DeviceRef::info() const {
  if (!valid()) return Status(Errc::unavailable, "device reference released");
  return service_->device(id_);
}

Result<BarWindow> DeviceRef::map_bar(NodeId node, int bar) const {
  if (!valid()) return Status(Errc::unavailable, "device reference released");
  auto dev = service_->device(id_);
  if (!dev) return dev.status();
  fabric::Substrate& fabric = service_->cluster().fabric();
  auto bar_base = fabric.bar_address(dev->endpoint, bar);
  if (!bar_base) return bar_base.status();
  const std::uint64_t size = fabric.endpoint(dev->endpoint)->bar_size(bar);

  BarWindow out;
  out.size_ = size;
  auto window = fabric.map_window(fabric::MapIntent::cpu, node, dev->host, *bar_base, size);
  if (!window) return window.status();
  out.window_ = std::move(*window);
  out.valid_ = true;
  return out;
}

Result<DmaWindow> DeviceRef::map_for_device(const sisci::RemoteSegment& segment) const {
  if (!valid()) return Status(Errc::unavailable, "device reference released");
  auto dev = service_->device(id_);
  if (!dev) return dev.status();
  fabric::Substrate& fabric = service_->cluster().fabric();

  DmaWindow out;
  out.size_ = segment.size;
  // Viewed from the device's host: segments local to the device are direct,
  // remote ones go through whatever DMA window the substrate provides
  // (device-side NTB LUT run; direct HDM addressing on CXL).
  auto window = fabric.map_window(fabric::MapIntent::dma, dev->host, segment.owner,
                                  segment.phys_addr, segment.size);
  if (!window) return window.status();
  out.window_ = std::move(*window);
  out.valid_ = true;
  return out;
}

Status DeviceRef::downgrade_to_shared() {
  if (!valid()) return Status(Errc::unavailable, "device reference released");
  if (mode_ != AcquireMode::exclusive) {
    return Status(Errc::invalid_argument, "reference is not exclusive");
  }
  NVS_RETURN_IF_ERROR(service_->downgrade(id_));
  mode_ = AcquireMode::shared;
  return Status::ok();
}

// --- Service --------------------------------------------------------------------

Result<DeviceId> Service::register_device(fabric::EndpointId endpoint) {
  fabric::Substrate& fabric = cluster_.fabric();
  fabric::Endpoint* ep = fabric.endpoint(endpoint);
  if (ep == nullptr) return Status(Errc::not_found, "no such endpoint");

  DeviceState st;
  st.info.endpoint = endpoint;
  st.info.host = fabric.endpoint_host(endpoint);
  st.info.name = std::string(ep->name());
  // Cluster-wide unique id: stable fingerprint of name/host/serial.
  std::uint64_t id = 0xcbf29ce484222325ULL;
  auto mix = [&id](std::uint64_t v) {
    id ^= v;
    id *= 0x100000001b3ULL;
  };
  for (char c : st.info.name) mix(static_cast<unsigned char>(c));
  mix(st.info.host);
  mix(next_serial_++);
  st.info.id = id;

  devices_.emplace(id, st);
  NVS_LOG(info, "smartio") << "registered device '" << st.info.name << "' on host "
                           << st.info.host << " as " << id;
  return id;
}

Status Service::unregister_device(DeviceId id) {
  auto it = devices_.find(id);
  if (it == devices_.end()) return Status(Errc::not_found, "unknown device id");
  if (it->second.exclusive || it->second.shared_refs > 0) {
    return Status(Errc::permission_denied, "device has borrowers");
  }
  devices_.erase(it);
  metadata_.erase(id);
  return Status::ok();
}

Result<DeviceInfo> Service::device(DeviceId id) const {
  auto it = devices_.find(id);
  if (it == devices_.end()) return Status(Errc::not_found, "unknown device id");
  return it->second.info;
}

Result<DeviceInfo> Service::find_device(std::string_view name) const {
  for (const auto& [id, st] : devices_) {
    if (st.info.name == name) return st.info;
  }
  return Status(Errc::not_found, "no device with that name");
}

std::vector<DeviceInfo> Service::list_devices() const {
  std::vector<DeviceInfo> out;
  out.reserve(devices_.size());
  for (const auto& [id, st] : devices_) out.push_back(st.info);
  return out;
}

Result<DeviceRef> Service::acquire(DeviceId id, AcquireMode mode) {
  auto it = devices_.find(id);
  if (it == devices_.end()) return Status(Errc::not_found, "unknown device id");
  DeviceState& st = it->second;
  if (st.exclusive) {
    return Status(Errc::permission_denied, "device held exclusively");
  }
  if (mode == AcquireMode::exclusive) {
    if (st.shared_refs > 0) {
      return Status(Errc::permission_denied, "device has shared borrowers");
    }
    st.exclusive = true;
  } else {
    ++st.shared_refs;
  }
  DeviceRef ref;
  ref.service_ = this;
  ref.id_ = id;
  ref.mode_ = mode;
  return ref;
}

Status Service::downgrade(DeviceId id) {
  auto it = devices_.find(id);
  if (it == devices_.end()) return Status(Errc::not_found, "unknown device id");
  if (!it->second.exclusive) {
    return Status(Errc::invalid_argument, "device is not held exclusively");
  }
  it->second.exclusive = false;
  ++it->second.shared_refs;
  return Status::ok();
}

void Service::release_ref(DeviceId id, AcquireMode mode) {
  auto it = devices_.find(id);
  if (it == devices_.end()) return;
  if (mode == AcquireMode::exclusive) {
    it->second.exclusive = false;
  } else if (it->second.shared_refs > 0) {
    --it->second.shared_refs;
  }
}

Result<NodeId> Service::resolve_hint(NodeId requester, DeviceId device,
                                     const AccessHint& hint) const {
  auto dev = this->device(device);
  if (!dev) return dev.status();
  // Placement is a substrate policy: the NTB fabric keeps segments next to
  // whoever reads them (device-read-dominated segments go device-side,
  // CPU-polled ones stay requester-local); the CXL pool substrate puts all
  // shared segments in the pool.
  return cluster_.fabric().place_segment(requester, dev->host, hint.cpu_reads,
                                         hint.device_reads);
}

Status Service::set_device_metadata(DeviceId device, NodeId owner,
                                    sisci::SegmentId segment) {
  if (!devices_.contains(device)) return Status(Errc::not_found, "unknown device id");
  metadata_[device] = {owner, segment};
  return Status::ok();
}

Result<std::pair<NodeId, sisci::SegmentId>> Service::device_metadata(DeviceId device) const {
  auto it = metadata_.find(device);
  if (it == metadata_.end()) {
    return Status(Errc::not_found, "device has no manager metadata registered");
  }
  return it->second;
}

Status Service::clear_device_metadata(DeviceId device) {
  metadata_.erase(device);
  return Status::ok();
}

Status Service::reassign_device_metadata(DeviceId device, NodeId expected_owner,
                                         NodeId new_owner, sisci::SegmentId segment) {
  auto it = metadata_.find(device);
  if (it == metadata_.end()) {
    return Status(Errc::not_found, "device has no manager metadata registered");
  }
  if (it->second.first != expected_owner) {
    return Status(Errc::permission_denied,
                  "metadata registration moved: owner is node " +
                                  std::to_string(it->second.first) + ", expected " +
                                  std::to_string(expected_owner));
  }
  it->second = {new_owner, segment};
  return Status::ok();
}

Result<sisci::Segment> Service::create_segment_hinted(NodeId requester, sisci::SegmentId id,
                                                      std::uint64_t size, DeviceId device,
                                                      const AccessHint& hint) {
  auto node = resolve_hint(requester, device, hint);
  if (!node) return node.status();
  return cluster_.create_segment(*node, id, size);
}

}  // namespace nvmeshare::smartio
