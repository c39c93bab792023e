#include "trips/io.h"

#include <cstdio>

#include "common/parse.h"

namespace urr {

namespace {

std::string FormatCost(Cost value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

}  // namespace

CsvTable TripRecordsToCsv(const TripRecords& records) {
  CsvTable table;
  table.header = {"pickup_node", "dropoff_node", "pickup_time", "duration"};
  table.rows.reserve(records.size());
  for (const TripRecord& r : records) {
    table.rows.push_back({std::to_string(r.pickup_node),
                          std::to_string(r.dropoff_node),
                          FormatCost(r.pickup_time), FormatCost(r.duration)});
  }
  return table;
}

Result<TripRecords> TripRecordsFromCsv(const CsvTable& table,
                                       NodeId num_nodes) {
  const int c_pu = table.ColumnIndex("pickup_node");
  const int c_do = table.ColumnIndex("dropoff_node");
  const int c_t = table.ColumnIndex("pickup_time");
  const int c_d = table.ColumnIndex("duration");
  if (c_pu < 0 || c_do < 0 || c_t < 0 || c_d < 0) {
    return Status::InvalidArgument(
        "need pickup_node, dropoff_node, pickup_time, duration columns");
  }
  TripRecords records;
  records.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    TripRecord rec;
    URR_ASSIGN_OR_RETURN(int64_t pu,
                         ParseInt(row[static_cast<size_t>(c_pu)], "pickup_node"));
    URR_ASSIGN_OR_RETURN(
        int64_t dn, ParseInt(row[static_cast<size_t>(c_do)], "dropoff_node"));
    if (pu < 0 || pu >= num_nodes || dn < 0 || dn >= num_nodes) {
      return Status::OutOfRange("node id outside network in CSV row");
    }
    rec.pickup_node = static_cast<NodeId>(pu);
    rec.dropoff_node = static_cast<NodeId>(dn);
    URR_ASSIGN_OR_RETURN(
        rec.pickup_time, ParseDouble(row[static_cast<size_t>(c_t)], "pickup_time"));
    URR_ASSIGN_OR_RETURN(rec.duration,
                         ParseDouble(row[static_cast<size_t>(c_d)], "duration"));
    if (rec.duration < 0 || rec.pickup_time < 0) {
      return Status::InvalidArgument("negative time in CSV row");
    }
    records.push_back(rec);
  }
  return records;
}

Result<TripRecords> TripRecordsFromCoordCsv(const CsvTable& table,
                                            const GridIndex& index) {
  const int c_px = table.ColumnIndex("pickup_x");
  const int c_py = table.ColumnIndex("pickup_y");
  const int c_dx = table.ColumnIndex("dropoff_x");
  const int c_dy = table.ColumnIndex("dropoff_y");
  const int c_t = table.ColumnIndex("pickup_time");
  const int c_d = table.ColumnIndex("duration");
  if (c_px < 0 || c_py < 0 || c_dx < 0 || c_dy < 0 || c_t < 0 || c_d < 0) {
    return Status::InvalidArgument(
        "need pickup_x/y, dropoff_x/y, pickup_time, duration columns");
  }
  TripRecords records;
  records.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    URR_ASSIGN_OR_RETURN(double px,
                         ParseDouble(row[static_cast<size_t>(c_px)], "pickup_x"));
    URR_ASSIGN_OR_RETURN(double py,
                         ParseDouble(row[static_cast<size_t>(c_py)], "pickup_y"));
    URR_ASSIGN_OR_RETURN(double dx,
                         ParseDouble(row[static_cast<size_t>(c_dx)], "dropoff_x"));
    URR_ASSIGN_OR_RETURN(double dy,
                         ParseDouble(row[static_cast<size_t>(c_dy)], "dropoff_y"));
    TripRecord rec;
    rec.pickup_node = index.NearestNode({px, py});
    rec.dropoff_node = index.NearestNode({dx, dy});
    if (rec.pickup_node == kInvalidNode || rec.dropoff_node == kInvalidNode) {
      return Status::NotFound("no road node near CSV coordinates");
    }
    URR_ASSIGN_OR_RETURN(
        rec.pickup_time, ParseDouble(row[static_cast<size_t>(c_t)], "pickup_time"));
    URR_ASSIGN_OR_RETURN(rec.duration,
                         ParseDouble(row[static_cast<size_t>(c_d)], "duration"));
    records.push_back(rec);
  }
  return records;
}

Status WriteTripRecords(const std::string& path, const TripRecords& records) {
  return WriteCsvFile(path, TripRecordsToCsv(records));
}

Result<TripRecords> ReadTripRecords(const std::string& path, NodeId num_nodes) {
  URR_ASSIGN_OR_RETURN(CsvTable table, ReadCsvFile(path));
  return TripRecordsFromCsv(table, num_nodes);
}

}  // namespace urr
