package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite

import java.io.File
import scala.jdk.CollectionConverters._

/** BENCHMARK.json must name exactly the metrics `Report` defines. */
class CatalogueSpec extends AnyFunSuite {
  private val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def listed(key: String): Seq[Metric] = spec.get(key).elements().asScala.toSeq.map(m =>
    Metric(m.get("name").asText, m.get("unit").asText, m.get("better").asText))

  test("end-to-end metrics match BENCHMARK.json") {
    assert(listed("end_to_end") == Report.EndToEnd)
  }

  test("per-layer metrics match BENCHMARK.json") {
    assert(listed("per_layer") == Report.PerLayer)
  }

  test("every listed workload exists") {
    spec.get("workloads").elements().asScala.foreach(w => Workload(w.get("name").asText, 1L))
  }
}
